"""Tests for the federated simulation loop and its aggregators."""

from __future__ import annotations

import copy
import inspect
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgm import fl_core
from fedgm.corruption import CorruptionSpec, realize
from fedgm.fl_core import (
    DIVERGENCE_LOSS,
    AggregatorSpec,
    LocalSGD,
    LrSchedule,
    RoundConfig,
    TailAveragedSGD,
    aggregate,
    local_update_sgd,
    local_update_tail_avg_sgd,
    run_federated,
    run_rfa_doubling,
    sample_devices,
    trace_diverged,
)
from fedgm.geomed import WeightedPointSet, smoothed_weiszfeld
from fedgm.secure_avg import SecureAverageOracle
from fedgm.tasks import generate_ls_task

from conftest import displacement_bound


def small_task(seed=0, noise=0.1, d=3, devices=10, n_k=20):
    return generate_ls_task(d, devices, n_k, noise, seed=seed, test_samples=50)


def make_shards(seeds=(0,), n=20, d=3):
    """A (2m, n, d) population, the m ids of its odd shards, (2m, n) labels and an rng.

    Selected shard k, id 2k + 1, draws its rows and labels from ``seeds[k]``;
    the even shards' rows and labels are NaN, which a step must never read.
    """
    data = [np.random.default_rng(seed) for seed in seeds]
    features = np.stack(
        [x for rng in data for x in (np.full((n, d), np.nan), rng.standard_normal((n, d)))]
    )
    labels = np.stack([y for rng in data for y in (np.full(n, np.nan), rng.standard_normal(n))])
    selected = np.arange(1, 2 * len(seeds), 2)
    return features, selected, labels, np.random.default_rng(seeds[0] + 1)


class TestSchedulesAndSpecs:
    def test_lr_schedule_piecewise_constant(self):
        sched = LrSchedule(gamma0=8.0, decay=0.5, decay_every=3)
        assert [sched.gamma_at(t) for t in range(7)] == [8, 8, 8, 4, 4, 4, 2]

    def test_lr_schedule_constant_by_default(self):
        sched = LrSchedule(gamma0=2.0)
        assert sched.gamma_at(0) == sched.gamma_at(100) == 2.0

    def test_lr_schedule_validation(self):
        with pytest.raises(ValueError):
            LrSchedule(gamma0=-1.0)
        with pytest.raises(ValueError):
            LrSchedule(gamma0=1.0, decay=0.0)
        with pytest.raises(ValueError):
            LrSchedule(gamma0=1.0, decay_every=0)
        for gamma0, decay in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf),
                              (1.0, 1.0 + 1e-12)):
            with pytest.raises(ValueError):
                LrSchedule(gamma0=gamma0, decay=decay)

    def test_lr_rate_that_is_not_finite_raises(self):
        # decay ** 2 would overflow a float, and 1e300 * 1e10 would be an
        # infinite product: a decay above 1 is rejected before any rate exists.
        for gamma0, decay in ((1e-300, 1e300), (1e300, 1e10)):
            with pytest.raises(ValueError, match=r"decay in \(0, 1\]"):
                LrSchedule(gamma0, decay)

    @given(
        gamma0=st.floats(min_value=0.0, max_value=1e300),
        decay=st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
        | st.sampled_from([1e-300, 5e-324, 1.0]),
        decay_every=st.integers(min_value=1, max_value=1000),
        t=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_rate_is_a_float_in_0_gamma0(self, gamma0, decay, decay_every, t):
        gamma = LrSchedule(gamma0, decay, decay_every).gamma_at(t)
        assert isinstance(gamma, float) and 0.0 <= gamma <= gamma0

    def test_local_spec_validation(self):
        with pytest.raises(ValueError):
            LocalSGD(batch_size=0)
        with pytest.raises(ValueError):
            LocalSGD(batch_size=5, epochs=0)
        with pytest.raises(ValueError):
            TailAveragedSGD(steps=1)
        with pytest.raises(ValueError):
            TailAveragedSGD(steps=2, schedule="tripling")

    def test_aggregator_spec_validation(self):
        with pytest.raises(ValueError):
            AggregatorSpec(kind="trimmed_mean")
        with pytest.raises(ValueError):
            AggregatorSpec(kind="rfa", budget=0)
        for groups in (0, 1):
            with pytest.raises(ValueError, match="groups >= "):
                AggregatorSpec(kind="median_of_means", groups=groups)
        for rel_tol in (-1e-6, math.nan, math.inf):
            with pytest.raises(ValueError):
                AggregatorSpec(kind="rfa", rel_tol=rel_tol)

    def test_round_config_validation(self):
        with pytest.raises(ValueError):
            RoundConfig(
                devices_per_round=0,
                local=LocalSGD(batch_size=5),
                lr=LrSchedule(gamma0=1.0),
            )
        spec = AggregatorSpec(kind="median_of_means", groups=6)
        with pytest.raises(ValueError, match="groups"):
            RoundConfig(5, LocalSGD(batch_size=5), LrSchedule(gamma0=1.0), spec)
        RoundConfig(6, LocalSGD(batch_size=5), LrSchedule(gamma0=1.0), spec)


class TestSamplingHelpers:
    def test_sample_devices_sorted_distinct(self):
        rng = np.random.default_rng(0)
        s = sample_devices(20, 7, rng)
        assert len(s) == 7
        assert len(set(s.tolist())) == 7
        assert np.array_equal(s, np.sort(s))
        assert s.min() >= 0 and s.max() < 20

    def test_sample_devices_range_errors(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_devices(5, 6, rng)
        with pytest.raises(ValueError):
            sample_devices(5, 0, rng)


class TestLocalUpdates:
    def test_zero_rate_returns_start(self):
        task, _ = small_task()
        x, sel, y, rng = make_shards()
        w0 = np.ones(3)
        out = local_update_sgd(task, x, sel, y, rng, w0, 0.0, batch_size=5, steps=4)
        assert np.array_equal(out[0], w0)

    def test_full_batch_single_epoch_is_one_gradient_step(self):
        task, _ = small_task()
        x, sel, y, rng = make_shards(n=16)
        w0 = np.full(3, 0.5)
        gamma = 0.2
        out = local_update_sgd(task, x, sel, y, rng, w0, gamma, batch_size=16, steps=1)
        expected = w0 - gamma * task.gradient(w0, x[sel[0]], y[sel[0]])
        assert np.allclose(out[0], expected, atol=1e-12)

    def test_step_count_scales_with_epochs(self):
        task, _ = small_task()
        w0 = np.zeros(3)
        one, three = (LocalSGD(batch_size=4, epochs=e).steps(20) for e in (1, 3))
        a = local_update_sgd(task, *make_shards((3,)), w0, 0.05, batch_size=4, steps=one)[0]
        b = local_update_sgd(task, *make_shards((3,)), w0, 0.05, batch_size=4, steps=three)[0]
        # more passes from the same starting rng pull the iterate further
        assert not np.allclose(a, b)

    def test_batch_size_validation(self):
        task, _ = small_task()
        shards = make_shards(n=10)
        with pytest.raises(ValueError):
            local_update_sgd(task, *shards, np.zeros(3), 0.1, batch_size=11, steps=1)
        with pytest.raises(ValueError):
            local_update_sgd(task, *shards, np.zeros(3), 0.1, batch_size=0, steps=1)
        with pytest.raises(ValueError, match="steps"):
            local_update_sgd(task, *shards, np.zeros(3), 0.1, batch_size=5, steps=0)

    def test_tail_avg_zero_rate_returns_start(self):
        task, _ = small_task()
        out = local_update_tail_avg_sgd(*make_shards(), np.ones(3), 0.0, steps=8)
        assert np.allclose(out[0], np.ones(3))

    def test_tail_avg_reproducible_given_device_rng(self):
        task, _ = small_task()
        a = local_update_tail_avg_sgd(*make_shards((7,)), np.zeros(3), 0.3, steps=10)[0]
        b = local_update_tail_avg_sgd(*make_shards((7,)), np.zeros(3), 0.3, steps=10)[0]
        assert np.array_equal(a, b)

    def test_tail_avg_step_validation(self):
        task, _ = small_task()
        with pytest.raises(ValueError):
            local_update_tail_avg_sgd(*make_shards(), np.zeros(3), 0.1, steps=1)

    def test_unequal_shards_rejected(self):
        """Features and labels must agree on K shards of n rows, and the m ids index them."""
        task, _ = small_task()
        x, sel, y, rng = make_shards((0, 1))
        cases = [
            (x, sel[:0], y),  # no shards
            (x[1], sel, y),  # one shard, not stacked
            (x, sel[:, None], y),  # ids not one-dimensional
            (x, sel, y[:, :-1]),  # labels not (K, n)
            (x, sel, y[0]),  # one shard's labels for four shards
            (x[:2], sel[:1], y),  # four shards' labels for two shards
            (x, sel, y[sel]),  # the selected shards' labels, not the population's
            (x, sel - 2, y),  # id -1 is not a shard
            (x, sel + 1, y),  # id 4 is past the last shard
            (x, sel.astype(float), y),  # ids not integers
            (x, sel == 1, y),  # a mask, not ids
        ]
        for features, ids, labels in cases:
            with pytest.raises(ValueError, match="stacked"):
                local_update_sgd(task, features, ids, labels, rng, np.zeros(3), 0.1, 5, steps=1)
            with pytest.raises(ValueError, match="stacked"):
                local_update_tail_avg_sgd(features, ids, labels, rng, np.zeros(3), 0.1, 4)

    def test_narrow_ids_read_the_same_shards(self):
        """uint8 ids 3 and 5 at n = 120 are rows 360 and 600, past uint8's 255."""
        task, _ = small_task()
        x, sel, y, rng = make_shards((0, 1, 2), n=120)
        wide, narrow = sel[1:], sel[1:].astype(np.uint8)
        assert wide.dtype == np.int64 and narrow.tolist() == [3, 5]
        for update in (
            lambda ids, rng: local_update_sgd(task, x, ids, y, rng, np.zeros(3), 0.1, 1, 30),
            lambda ids, rng: local_update_tail_avg_sgd(x, ids, y, rng, np.zeros(3), 0.1, 30),
        ):
            a, b = update(wide, copy.deepcopy(rng)), update(narrow, copy.deepcopy(rng))
            assert np.isfinite(a).all() and np.array_equal(a, b)


class TestBatchedLocalUpdates:
    """Each row of a batched local update matches a one-device Python loop.

    The loop replays the round's one draw call from a copy of the rng and
    takes column k of the draws for shard k; the rng must end in the
    copy's state, so the round drew nothing else.
    """

    # Rows are gathered n // b = 20 steps at a time: 47 steps make three
    # blocks, the last one partial.
    @pytest.mark.parametrize("steps", [9, 47])
    def test_tail_avg_rows_match_one_row_loop(self, steps):
        task, _ = small_task()
        x, sel, y, rng = make_shards((0, 10, 20))
        replay = copy.deepcopy(rng)
        w0, gamma = np.full(3, 0.2), 0.3
        out = local_update_tail_avg_sgd(x, sel, y, rng, w0, gamma, steps)
        assert out.shape == (3, 3)
        draws = replay.integers(0, x.shape[1], size=(steps, len(sel)))
        # one rng call per round
        assert rng.bit_generator.state == replay.bit_generator.state
        for k in range(len(sel)):
            w = w0.copy()
            tail = []
            for i, j in enumerate(draws[:, k]):
                w = w - gamma * task.gradient(w, x[sel[k], j : j + 1], y[sel[k], j : j + 1])
                if i + 1 >= (steps + 1) // 2 + 1:
                    tail.append(w)
            assert np.abs(out[k] - np.mean(tail, axis=0)).max() <= 1e-12

    @pytest.mark.parametrize("steps", [9, 47])
    def test_sgd_batch1_rows_match_one_row_loop(self, steps):
        task, _ = small_task()
        x, sel, y, rng = make_shards((0, 10, 20))
        replay = copy.deepcopy(rng)
        w0, gamma = np.full(3, 0.2), 0.3
        out = local_update_sgd(task, x, sel, y, rng, w0, gamma, 1, steps)
        assert out.shape == (3, 3)
        keys = replay.random((steps, len(sel), x.shape[1]))
        # one rng call per round
        assert rng.bit_generator.state == replay.bit_generator.state
        for k in range(len(sel)):
            w = w0.copy()
            for j in keys[:, k].argsort(axis=1)[:, 0]:
                w = w - gamma * task.gradient(w, x[sel[k], j : j + 1], y[sel[k], j : j + 1])
            assert np.abs(out[k] - w).max() <= 1e-12

    def test_sgd_rows_match_sequential_minibatch_sgd(self):
        task, _ = small_task()
        x, sel, y, rng = make_shards((0, 10, 20))
        replay = copy.deepcopy(rng)
        w0, gamma, batch, epochs = np.full(3, -0.1), 0.2, 6, 2
        steps = LocalSGD(batch, epochs).steps(20)
        assert steps == math.ceil(20 * epochs / batch)
        out = local_update_sgd(task, x, sel, y, rng, w0, gamma, batch, steps)
        assert out.shape == (3, 3)
        keys = replay.random((steps, len(sel), x.shape[1]))
        assert rng.bit_generator.state == replay.bit_generator.state
        for k in range(len(sel)):
            w = w0.copy()
            for idx in keys[:, k].argsort(axis=1)[:, :batch]:
                assert len(set(idx.tolist())) == batch
                w = w - gamma * task.gradient(w, x[sel[k], idx], y[sel[k], idx])
            assert np.abs(out[k] - w).max() <= 1e-12

    def test_tail_avg_gathers_rows_a_block_at_a_time(self):
        """Guard: a long round never holds every step's rows at once.

        Gathering all 1000 steps' rows at once would take 50 copies of the
        round's (m, n, d) features; a block of n steps takes one.
        """
        m, n, d = 4, 20, 40
        task, _ = small_task(d=d)
        x, sel, y, rng = make_shards(range(m), n=n, d=d)
        steps = 50 * n
        # The round's (steps, m) draws.
        index_bytes = steps * m * 8
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            local_update_tail_avg_sgd(x, sel, y, rng, np.zeros(d), 0.1, steps)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # One block's rows are alive at a time; a second copy's worth covers
        # the step buffers and small temporaries.
        assert peak < index_bytes + 2 * x[sel].nbytes


class TestAggregate:
    def setup_method(self):
        rng = np.random.default_rng(42)
        self.updates = rng.standard_normal((8, 4))
        self.weights = rng.uniform(0.5, 1.5, 8)
        self.weights = self.weights / self.weights.sum()
        self.z0 = np.zeros(4)

    def test_mean_matches_weighted_average(self):
        oracle = SecureAverageOracle("plain")
        out = aggregate(self.updates, self.weights, AggregatorSpec(kind="mean"), oracle, self.z0)
        expected = (self.weights[:, None] * self.updates).sum(axis=0)
        assert np.allclose(out, expected, atol=1e-12)
        assert oracle.call_count == 1

    def test_sgd_step_aggregation_is_the_mean(self):
        oracle = SecureAverageOracle("plain")
        spec = AggregatorSpec(kind="sgd_step")
        out = aggregate(self.updates, self.weights, spec, oracle, self.z0)
        expected = (self.weights[:, None] * self.updates).sum(axis=0)
        assert np.allclose(out, expected, atol=1e-12)
        assert oracle.call_count == 1

    def test_rfa_from_z0_matches_standalone_solver(self):
        z0 = np.random.default_rng(7).standard_normal(4)
        for budget in (1, 3, 7):
            spec = AggregatorSpec(kind="rfa", budget=budget, rel_tol=0.0)
            oracle = SecureAverageOracle("plain")
            out = aggregate(self.updates, self.weights, spec, oracle, z0=z0)
            res = smoothed_weiszfeld(
                WeightedPointSet(self.updates, self.weights),
                nu=1e-6,
                budget=budget,
                rel_tol=0.0,
                z0=z0,
            )
            assert np.array_equal(out, res.z)
            assert oracle.call_count == res.oracle_calls == budget

    @pytest.mark.parametrize("kind", ["mean", "sgd_step", "median_of_means"])
    @pytest.mark.parametrize("mode", ["plain", "masked"])
    def test_other_kinds_ignore_z0(self, kind, mode):
        spec = AggregatorSpec(kind=kind, groups=3 if kind == "median_of_means" else 1)
        near, far = SecureAverageOracle(mode, seed=3), SecureAverageOracle(mode, seed=3)
        expected = aggregate(self.updates, self.weights, spec, near, z0=self.z0)
        out = aggregate(self.updates, self.weights, spec, far, z0=np.full(4, 5.0))
        assert out.tobytes() == expected.tobytes()
        assert far.call_count == near.call_count

    @pytest.mark.parametrize("mode", ["plain", "masked"])
    def test_rfa_fixed_point_start_costs_one_call(self, mode):
        # The start 0 is the median of +-e_i: one step returns it, and the
        # unchanged objective stops the solve after that single call.
        updates = np.vstack([np.eye(4), -np.eye(4)])
        spec = AggregatorSpec(kind="rfa", budget=3)
        oracle = SecureAverageOracle(mode, seed=2)
        out = aggregate(updates, np.full(8, 0.125), spec, oracle, z0=np.zeros(4))
        assert np.array_equal(out, np.zeros(4))
        assert oracle.call_count == 1

    @pytest.mark.parametrize("kind", ["mean", "rfa", "median_of_means", "sgd_step"])
    @pytest.mark.parametrize("mode", ["plain", "masked"])
    def test_writes_nothing_it_is_given(self, kind, mode):
        spec = AggregatorSpec(kind=kind, budget=5, groups=3 if kind == "median_of_means" else 1)
        z0 = np.random.default_rng(11).standard_normal(4)
        inputs = [self.updates, self.weights, z0]
        before = [a.tobytes() for a in inputs]
        aggregate(self.updates, self.weights, spec, SecureAverageOracle(mode, seed=4), z0)
        assert [a.tobytes() for a in inputs] == before

    @pytest.mark.parametrize("kind", ["rfa", "median_of_means"])
    @pytest.mark.parametrize("mode", ["plain", "masked"])
    def test_no_finite_row_is_one_call_like_the_mean(self, kind, mode):
        # Every row holds an inf or a NaN, so there is no point set to solve.
        updates = self.updates.copy()
        updates[::2, 0] = np.inf
        updates[1::2, 1] = np.nan
        outs, oracles = [], []
        for spec in (AggregatorSpec(kind="mean"), AggregatorSpec(kind=kind, groups=3)):
            oracles.append(SecureAverageOracle(mode, seed=6))
            outs.append(aggregate(updates, self.weights, spec, oracles[-1], self.z0))
        assert outs[1].tobytes() == outs[0].tobytes()
        assert not np.isfinite(outs[1]).all()
        assert oracles[1].call_count == 1

    @pytest.mark.parametrize("scale", [1e6, 1e50, 1e100])
    @pytest.mark.parametrize("mode", ["plain", "masked"])
    def test_rfa_from_honest_centre_survives_extreme_rows(self, scale, mode):
        # 3 of 10 rows at +-scale, all below the ~1e154 where distances
        # overflow. From the mean start, budget 3 ends about scale / 100 away.
        rng = np.random.default_rng(5)
        honest = 1.0 + rng.uniform(-0.1, 0.1, (7, 5))
        attackers = scale * rng.choice([-1.0, 1.0], (3, 5))
        updates = np.vstack([honest, attackers])
        spec = AggregatorSpec(kind="rfa", budget=3)
        oracle = SecureAverageOracle(mode, seed=1)
        z = aggregate(updates, np.full(10, 0.1), spec, oracle, z0=np.ones(5))
        # eps = 0 gives the tightest bound, the one for the exact median.
        bound = displacement_bound(0.3, 0.0, float(np.linalg.norm(honest - 1.0, axis=1).max()))
        assert np.linalg.norm(z - 1.0) <= bound
        assert 1 <= oracle.call_count <= spec.budget

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rfa_from_z0_is_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        m, d = int(rng.integers(2, 12)), int(rng.integers(1, 5))
        updates = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-3, 3)
        weights = rng.uniform(0.1, 2.0, m)
        z0 = rng.standard_normal(d)
        spec = AggregatorSpec(kind="rfa", budget=5, rel_tol=0.0)
        perm = rng.permutation(m)
        z = aggregate(updates, weights, spec, SecureAverageOracle("plain"), z0=z0)
        z_perm = aggregate(
            updates[perm], weights[perm], spec, SecureAverageOracle("plain"), z0=z0
        )
        assert np.allclose(z, z_perm, rtol=1e-9, atol=1e-12 * np.abs(updates).max())

    def test_rfa_shrugs_off_far_outlier(self):
        honest = np.random.default_rng(1).standard_normal((9, 3)) * 0.1
        updates = np.vstack([honest, np.full((1, 3), 1e4)])
        weights = np.full(10, 0.1)
        oracle = SecureAverageOracle("plain")
        z0 = np.zeros(3)
        mean_out = aggregate(updates, weights, AggregatorSpec(kind="mean"), oracle, z0)
        rfa_spec = AggregatorSpec(kind="rfa", budget=50, rel_tol=0.0)
        rfa_out = aggregate(updates, weights, rfa_spec, oracle, z0)
        assert np.linalg.norm(mean_out) > 100.0
        assert np.linalg.norm(rfa_out) < 1.0

    def test_median_of_means_call_count(self):
        for groups in (2, 4):
            oracle = SecureAverageOracle("plain")
            spec = AggregatorSpec(kind="median_of_means", groups=groups)
            aggregate(self.updates, self.weights, spec, oracle, self.z0)
            assert oracle.call_count == groups

    def test_median_of_means_rejects_too_many_groups(self):
        oracle = SecureAverageOracle("plain")
        spec = AggregatorSpec(kind="median_of_means", groups=9)
        with pytest.raises(ValueError):
            aggregate(self.updates, self.weights, spec, oracle, self.z0)


def clean_config(aggregator="mean", budget=3, gamma0=0.4, batch_size=10, epochs=1):
    return RoundConfig(
        devices_per_round=5,
        local=LocalSGD(batch_size=batch_size, epochs=epochs),
        lr=LrSchedule(gamma0=gamma0),
        aggregator=AggregatorSpec(kind=aggregator, budget=budget),
    )


class TestRunFederated:
    def test_zero_rounds_empty_trace(self):
        task, part = small_task()
        traces = run_federated(task, part, CorruptionSpec(), clean_config(), rounds=0)
        assert traces == []

    def test_validation_errors(self):
        task, part = small_task()
        with pytest.raises(ValueError):
            run_federated(task, part, CorruptionSpec(), clean_config(), rounds=-1)
        bad = RoundConfig(
            devices_per_round=part.devices + 1,
            local=LocalSGD(batch_size=5),
            lr=LrSchedule(gamma0=0.1),
        )
        with pytest.raises(ValueError):
            run_federated(task, part, CorruptionSpec(), bad, rounds=1)

    def test_deterministic_given_seed(self):
        task, part = small_task()
        a = run_federated(task, part, CorruptionSpec(), clean_config(), rounds=6, seed=3)
        b = run_federated(task, part, CorruptionSpec(), clean_config(), rounds=6, seed=3)
        assert [t.train_loss for t in a] == [t.train_loss for t in b]
        assert [t.selected for t in a] == [t.selected for t in b]
        c = run_federated(task, part, CorruptionSpec(), clean_config(), rounds=6, seed=4)
        assert [t.train_loss for t in a] != [t.train_loss for t in c]

    def test_trace_bookkeeping(self):
        task, part = small_task()
        traces = run_federated(task, part, CorruptionSpec(), clean_config(), rounds=5, seed=0)
        assert [t.round for t in traces] == list(range(5))
        assert all(t.corrupted_selected == 0 for t in traces)
        assert all(len(t.selected) == 5 for t in traces)
        row = traces[0].csv_row()
        assert len(row) == 6 and row[0] == 0

    def test_round_weights_are_exactly_one_over_m(self, monkeypatch):
        # Seven copies of 1/7 sum to 0.9999999999999998, so weights divided
        # by their sum once more would differ from np.full(7, 1 / 7).
        assert np.full(7, 1 / 7).sum() != 1.0
        received, starts, aggregates = [], [], []

        def record(updates, weights, spec, oracle, z0):
            received.append(np.array(weights, copy=True))
            starts.append(np.array(z0, copy=True))
            aggregates.append(aggregate(updates, weights, spec, oracle, z0=z0))
            return aggregates[-1]

        monkeypatch.setattr("fedgm.fl_core.aggregate", record)
        task, part = small_task()
        config = RoundConfig(7, LocalSGD(batch_size=10), LrSchedule(gamma0=0.4))
        traces = run_federated(task, part, CorruptionSpec(), config, rounds=4, seed=2)
        assert len(received) == len(traces) == 4
        for weights in received:
            assert np.array_equal(weights, np.full(7, 1 / 7))
        # Each round starts from the model it broadcast: w = 0, then the last aggregate.
        assert np.array_equal(starts[0], np.zeros(task.d))
        for start, previous in zip(starts[1:], aggregates):
            assert np.array_equal(start, previous)

    def test_mean_round_costs_exactly_one_call(self):
        task, part = small_task()
        oracle = SecureAverageOracle("plain")
        traces = run_federated(
            task, part, CorruptionSpec(), clean_config(), rounds=7, seed=1, oracle=oracle
        )
        assert all(t.oracle_calls == 1 for t in traces)
        assert oracle.call_count == 7

    def test_rfa_round_call_range(self):
        task, part = small_task()
        oracle = SecureAverageOracle("plain")
        budget = 3
        traces = run_federated(
            task,
            part,
            CorruptionSpec(),
            clean_config(aggregator="rfa", budget=budget),
            rounds=7,
            seed=1,
            oracle=oracle,
        )
        assert all(1 <= t.oracle_calls <= budget for t in traces)

    def test_rfa_round_without_tolerance_costs_exactly_budget(self):
        # Warm-started at the broadcast model, a round pays no mean-start call.
        task, part = small_task()
        oracle = SecureAverageOracle("plain")
        config = RoundConfig(
            devices_per_round=5,
            local=LocalSGD(batch_size=10),
            lr=LrSchedule(gamma0=0.4),
            aggregator=AggregatorSpec(kind="rfa", budget=4, rel_tol=0.0),
        )
        traces = run_federated(
            task, part, CorruptionSpec(), config, rounds=7, seed=1, oracle=oracle
        )
        assert [t.oracle_calls for t in traces] == [4] * 7
        assert oracle.call_count == sum(t.oracle_calls for t in traces)

    # median_of_means needs 2 groups, which a one-device round cannot hold.
    @pytest.mark.parametrize("kind", ["rfa"])
    @pytest.mark.parametrize("mode", ["plain", "masked"])
    def test_one_device_round_is_one_call_and_the_mean(self, kind, mode, monkeypatch):
        models = {}

        def record(updates, weights, spec, oracle, z0):
            out = aggregate(updates, weights, spec, oracle, z0)
            models.setdefault(spec.kind, []).append(out)
            return out

        monkeypatch.setattr("fedgm.fl_core.aggregate", record)
        task, part = small_task()
        attack = CorruptionSpec(kind="omniscient", rho=0.25, seed=0)
        traces = {}
        for agg in (kind, "mean"):
            config = RoundConfig(
                1, LocalSGD(batch_size=10), LrSchedule(gamma0=0.4), AggregatorSpec(kind=agg)
            )
            oracle = SecureAverageOracle(mode, seed=0)
            traces[agg] = run_federated(task, part, attack, config, 8, seed=0, oracle=oracle)
        assert [t.oracle_calls for t in traces[kind]] == [1] * 8
        assert sum(t.corrupted_selected for t in traces[kind]) > 0
        for got, want in zip(models[kind], models["mean"], strict=True):
            assert got.tobytes() == want.tobytes()

    def test_clean_training_reduces_loss(self):
        task, part = small_task(noise=0.05)
        f0 = task.loss(np.zeros(task.d))[0]
        traces = run_federated(
            task, part, CorruptionSpec(), clean_config(gamma0=0.8), rounds=30, seed=2
        )
        assert traces[-1].train_loss < 0.5 * f0

    def test_rounds_score_the_model_without_reading_rows(self, monkeypatch):
        """Guard: each round's losses come from the task's stored quadratics."""
        task, part = small_task()

        def refuse(*args):
            raise AssertionError("a round read every row to score its model")

        monkeypatch.setattr("fedgm.tasks.least_squares_loss", refuse)
        traces = run_federated(task, part, CorruptionSpec(), clean_config(), rounds=5, seed=1)
        assert len(traces) == 5

    def test_masked_oracle_run_close_to_plain(self):
        task, part = small_task()
        plain = run_federated(
            task,
            part,
            CorruptionSpec(),
            clean_config(),
            rounds=5,
            seed=5,
            oracle=SecureAverageOracle("plain"),
        )
        masked = run_federated(
            task,
            part,
            CorruptionSpec(),
            clean_config(),
            rounds=5,
            seed=5,
            oracle=SecureAverageOracle("masked", seed=5),
        )
        for a, b in zip(plain, masked):
            assert a.train_loss == pytest.approx(b.train_loss, rel=1e-6)

    def test_static_corruption_changes_dynamics_and_is_counted(self):
        task, part = small_task()
        clean = run_federated(task, part, CorruptionSpec(), clean_config(), rounds=8, seed=6)
        spoiled = run_federated(
            task,
            part,
            CorruptionSpec(kind="static_data", rho=0.3, seed=6),
            clean_config(),
            rounds=8,
            seed=6,
        )
        assert sum(t.corrupted_selected for t in spoiled) > 0
        assert [t.train_loss for t in clean] != [t.train_loss for t in spoiled]

    @pytest.mark.parametrize("kind", ["static_data", "adaptive_data"])
    def test_poisoning_leaves_partition_and_task_data_untouched(self, kind):
        task, part = small_task()
        arrays = [part.device_features, part.device_labels, task.train_features, task.train_labels]
        before = [a.tobytes() for a in arrays]
        traces = run_federated(
            task, part, CorruptionSpec(kind=kind, rho=0.3, seed=7), clean_config(), 6, seed=7
        )
        assert sum(t.corrupted_selected for t in traces) > 0
        assert [a.tobytes() for a in arrays] == before

    @pytest.mark.parametrize("kind", ["none", "static_data", "adaptive_data", "omniscient"])
    def test_read_only_shards_serve_every_corruption_kind(self, kind):
        task, part = small_task()
        for shards in (part.device_features, part.device_labels):
            with pytest.raises(ValueError, match="read-only"):
                shards[0, 0] = 0.0
        spec = CorruptionSpec(kind=kind, rho=0.0 if kind == "none" else 0.3)
        traces = run_federated(task, part, spec, clean_config(), rounds=6, seed=7)
        assert len(traces) == 6
        assert (sum(t.corrupted_selected for t in traces) > 0) == (kind != "none")
        _, fresh = small_task()
        assert part.device_features.tobytes() == fresh.device_features.tobytes()
        assert part.device_labels.tobytes() == fresh.device_labels.tobytes()

    @pytest.mark.parametrize("kind", ["static_data", "adaptive_data"])
    def test_local_update_sees_exactly_the_poisoned_rows(self, kind, monkeypatch):
        """Every row a local step gathers is the partition's row, poisoned iff its device is."""
        seen = []
        real_steps = fl_core._local_steps

        def rows(shards, ids, idx):
            """Rows idx[s, k] of shard ids[k] for every step s: what the steps gather."""
            return shards[ids[:, None], idx]

        def spy(task, features, selected, labels, w0, gamma, idx, tail):
            x, y = rows(features, selected, idx), rows(labels, selected, idx)
            seen.append((x, y, idx, np.array(w0, copy=True)))
            return real_steps(task, features, selected, labels, w0, gamma, idx, tail)

        monkeypatch.setattr("fedgm.fl_core._local_steps", spy)
        task, part = small_task()
        spec = CorruptionSpec(kind=kind, rho=0.3, seed=7)
        traces = run_federated(task, part, spec, clean_config(), rounds=6, seed=7)
        corrupted = realize(spec, part.devices, fallback_seed=7)
        assert len(seen) == len(traces) == 6
        assert any(0 < t.corrupted_selected < len(t.selected) for t in traces)
        for (x, y, idx, w0), trace in zip(seen, traces):
            selected = np.array(trace.selected)
            mask = corrupted[selected]
            assert mask.sum() == trace.corrupted_selected
            x_part = rows(part.device_features, selected, idx)
            y_part = rows(part.device_labels, selected, idx)
            if kind == "static_data":
                assert np.array_equal(x[:, mask], -x_part[:, mask])
                assert np.array_equal(x[:, ~mask], x_part[:, ~mask])
                assert np.array_equal(y, y_part)
            else:
                assert np.array_equal(x, x_part)
                relabelled = part.device_features[selected[mask]] @ -w0
                own = np.arange(mask.sum())
                assert np.array_equal(y[:, mask], rows(relabelled, own, idx[:, mask]))
                assert np.array_equal(y[:, ~mask], y_part[:, ~mask])

    @pytest.mark.parametrize("local", ["local_update_sgd", "local_update_tail_avg_sgd"])
    @pytest.mark.parametrize("kind", ["none", "omniscient", "static_data", "adaptive_data"])
    def test_local_updates_read_the_partition_in_place(self, kind, local, monkeypatch):
        """No round copies the population; a data attack copies it once per run.

        Static poisoning copies the features, adaptive poisoning the labels.
        """
        seen = []
        real = getattr(fl_core, local)

        def record(*args):
            call = inspect.signature(real).bind(*args).arguments
            seen.append((call["features"], call["labels"]))
            return real(*args)

        monkeypatch.setattr(f"fedgm.fl_core.{local}", record)
        task, part = small_task()
        rho = 0.0 if kind == "none" else 0.3
        spec = CorruptionSpec(kind=kind, rho=rho, seed=7)
        if local == "local_update_sgd":
            traces = run_federated(task, part, spec, clean_config(), rounds=4, seed=7)
        else:
            traces = run_rfa_doubling(task, part, spec, 5, base_steps=4, rounds=4, seed=7)
        assert len(seen) == len(traces) == 4
        assert sum(t.corrupted_selected for t in traces) > 0 or kind == "none"
        in_place = [np.shares_memory(features, part.device_features) for features, _ in seen]
        assert in_place == [kind != "static_data"] * 4
        if kind == "adaptive_data":
            assert all(labels is seen[0][1] for _, labels in seen)
            assert not np.shares_memory(seen[0][1], part.device_labels)
        else:
            assert all(np.shares_memory(labels, part.device_labels) for _, labels in seen)

    def test_a_run_builds_as_many_generators_for_1000_devices_as_for_10(self, monkeypatch):
        """Devices share one draw stream, so no generator is built per device."""
        built = []
        real_default_rng = np.random.default_rng

        class CountedGenerator(np.random.Generator):
            def __init__(self, *args, **kwargs):
                built.append("Generator")
                super().__init__(*args, **kwargs)

        def counted_default_rng(*args, **kwargs):
            built.append("default_rng")
            return real_default_rng(*args, **kwargs)

        counts = []
        for devices in (10, 1000):
            task, part = generate_ls_task(3, devices, 20, 0.1, seed=0, test_samples=50)
            spec = CorruptionSpec(kind="static_data", rho=0.3)
            with monkeypatch.context() as patch:
                patch.setattr(np.random, "default_rng", counted_default_rng)
                patch.setattr(np.random, "Generator", CountedGenerator)
                traces = run_federated(task, part, spec, clean_config(), rounds=3, seed=0)
            assert len(traces) == 3
            counts.append(len(built))
            built.clear()
        assert counts[0] == counts[1] > 0

    def test_static_poisoning_negates_the_shards_once_per_run(self, monkeypatch):
        calls, real_poison = [], fl_core.poison_static

        def record(features):
            calls.append(features.shape)
            return real_poison(features)

        monkeypatch.setattr("fedgm.fl_core.poison_static", record)
        task, part = small_task()
        spec = CorruptionSpec(kind="static_data", rho=0.3, seed=7)
        traces = run_federated(task, part, spec, clean_config(), rounds=6, seed=7)
        assert len(traces) == 6
        corrupted = realize(spec, part.devices, fallback_seed=7)
        assert calls == [(corrupted.sum(), *part.device_features.shape[1:])]

    def test_adaptive_corruption_runs(self):
        task, part = small_task()
        traces = run_federated(
            task,
            part,
            CorruptionSpec(kind="adaptive_data", rho=0.3, seed=7),
            clean_config(),
            rounds=6,
            seed=7,
        )
        assert len(traces) == 6
        assert all(math.isfinite(t.train_loss) for t in traces)

    def test_omniscient_attack_diverges_mean_at_high_rate(self):
        task, part = generate_ls_task(10, 100, 50, 0.1, seed=0)
        config = RoundConfig(
            devices_per_round=10,
            local=LocalSGD(batch_size=10, epochs=3),
            lr=LrSchedule(gamma0=30.0),
            aggregator=AggregatorSpec(kind="mean"),
        )
        traces = run_federated(
            task,
            part,
            CorruptionSpec(kind="omniscient", rho=0.25, seed=0),
            config,
            rounds=10,
            seed=0,
        )
        assert trace_diverged(traces)
        assert len(traces) < 10

    # The attacked mean's train loss: 3.6e2, 3.9e7, 6.7e11, 1.1e15 at
    # gamma0 25 and 1.1e6, 1.2e14 at gamma0 30.
    @pytest.mark.parametrize("gamma0,stop", [(25.0, 3), (30.0, 1)])
    def test_run_stops_at_its_first_diverged_round(self, gamma0, stop):
        task, part = generate_ls_task(10, 100, 50, 0.1, seed=0)
        config = RoundConfig(10, LocalSGD(batch_size=10, epochs=3), LrSchedule(gamma0=gamma0))
        attack = CorruptionSpec(kind="omniscient", rho=0.25)
        *before, last = run_federated(task, part, attack, config, rounds=10, seed=0)
        assert last.round == stop and last.train_loss > DIVERGENCE_LOSS
        assert [t.round for t in before] == list(range(stop))
        assert all(math.isfinite(t.train_loss) and t.train_loss <= DIVERGENCE_LOSS for t in before)

    # 20 samples per device at batch 7: a one-epoch pass is ceil(20 / 7) = 3 steps.
    @pytest.mark.parametrize("kind,steps", [("sgd_step", 1), ("mean", 3)])
    def test_minibatch_rounds_share_one_local_update_sgd(self, kind, steps, monkeypatch):
        """An sgd_step round is a one-step local_update_sgd; a mean round runs steps(n).

        Both go through the name that perfbench wraps, and only the two
        local rules run ``_local_steps``.
        """
        calls, callers = [], []
        real_steps = fl_core._local_steps

        def record(task, features, selected, labels, rng, w0, gamma, batch_size, steps):
            calls.append((batch_size, steps))
            return local_update_sgd(
                task, features, selected, labels, rng, w0, gamma, batch_size, steps
            )

        def spy(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return real_steps(*args, **kwargs)

        monkeypatch.setattr("fedgm.fl_core.local_update_sgd", record)
        monkeypatch.setattr("fedgm.fl_core._local_steps", spy)
        task, part = small_task()
        config = clean_config(kind, batch_size=7)
        traces = run_federated(task, part, CorruptionSpec(), config, rounds=4, seed=2)
        assert len(traces) == 4
        assert calls == [(7, steps)] * 4
        assert callers == ["local_update_sgd"] * 4

    def test_sgd_step_requires_local_sgd_spec(self):
        with pytest.raises(ValueError):
            RoundConfig(
                devices_per_round=5,
                local=TailAveragedSGD(steps=4),
                lr=LrSchedule(gamma0=0.1),
                aggregator=AggregatorSpec(kind="sgd_step"),
            )

    def test_tail_averaged_local_runs(self):
        task, part = small_task()
        config = RoundConfig(
            devices_per_round=5,
            local=TailAveragedSGD(steps=8),
            lr=LrSchedule(gamma0=0.0),
            aggregator=AggregatorSpec(kind="rfa", budget=20),
        )
        traces = run_federated(task, part, CorruptionSpec(), config, rounds=3, seed=1)
        assert len(traces) == 3
        # gamma = 0 keeps w at its start 0, so every round sits at |optimum|^2.
        opt_sq = float(np.sum(task.optimum**2))
        assert all(t.dist_to_opt_sq == opt_sq for t in traces)


class TestTraceDiverged:
    def test_empty_is_not_diverged(self):
        assert trace_diverged([]) is False

    def test_finite_small_loss(self):
        task, part = small_task()
        traces = run_federated(task, part, CorruptionSpec(), clean_config(), rounds=2)
        assert trace_diverged(traces) is False

    def test_flags_huge_and_nonfinite(self):
        task, part = small_task()
        base = run_federated(task, part, CorruptionSpec(), clean_config(), rounds=1)
        huge = [base[0]]
        huge[0].train_loss = 1e13
        assert trace_diverged(huge) is True
        huge[0].train_loss = float("nan")
        assert trace_diverged(huge) is True


class TestDoublingRunner:
    def test_steps_at_round(self):
        assert [TailAveragedSGD(2, "doubling").steps_at(t) for t in range(4)] == [2, 4, 8, 16]
        assert [TailAveragedSGD(4).steps_at(t) for t in range(3)] == [4, 4, 4]
        with pytest.raises(ValueError):
            TailAveragedSGD(1, "doubling")
        with pytest.raises(ValueError):
            TailAveragedSGD(2, "tripling")

    def test_noiseless_run_contracts(self):
        task, part = generate_ls_task(5, 10, 40, 0.0, seed=0, test_samples=20)
        traces = run_rfa_doubling(
            task, part, CorruptionSpec(), devices_per_round=5, base_steps=4, rounds=6, seed=0
        )
        dists = [t.dist_to_opt_sq for t in traces]
        assert dists[-1] < dists[0]
        assert dists[-1] < 1e-3

    def test_deterministic(self):
        task, part = small_task(noise=0.05)
        a = run_rfa_doubling(task, part, CorruptionSpec(), 5, 2, 4, seed=9)
        b = run_rfa_doubling(task, part, CorruptionSpec(), 5, 2, 4, seed=9)
        assert [t.train_loss for t in a] == [t.train_loss for t in b]

    def test_constant_schedule_uses_fixed_steps(self):
        task, part = small_task(noise=0.05)
        traces = run_rfa_doubling(
            task, part, CorruptionSpec(), 5, 4, 3, seed=1, schedule="constant"
        )
        assert len(traces) == 3

    @pytest.mark.parametrize("schedule", ["doubling", "constant"])
    def test_preset_is_run_federated_at_rate_one_half(self, schedule):
        # The rate 1 / (2 R^2) of unit-norm features, and the preset's solver settings.
        task, part = small_task(noise=0.05)
        oracles = SecureAverageOracle("plain"), SecureAverageOracle("plain")
        preset = run_rfa_doubling(
            task, part, CorruptionSpec(), 5, 2, 4, seed=3, schedule=schedule, budget=7,
            oracle=oracles[0],
        )
        config = RoundConfig(
            devices_per_round=5,
            local=TailAveragedSGD(2, schedule),
            lr=LrSchedule(0.5),
            aggregator=AggregatorSpec("rfa", budget=7, rel_tol=1e-13),
        )
        spelled_out = run_federated(
            task, part, CorruptionSpec(), config, rounds=4, seed=3, oracle=oracles[1]
        )
        assert len(preset) == 4
        assert preset == spelled_out
        assert oracles[0].call_count == oracles[1].call_count
