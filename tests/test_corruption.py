"""Tests for corruption selection and attack transforms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgm.corruption import (
    CorruptionSpec,
    omniscient_updates,
    poison_adaptive,
    poison_static,
    realize,
)

RNG_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


class TestCorruptionSpec:
    def test_defaults_are_clean(self):
        spec = CorruptionSpec()
        assert spec.kind == "none" and spec.rho == 0.0

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            CorruptionSpec(kind="gradient_flip", rho=0.1)

    def test_rejects_rho_out_of_range(self):
        with pytest.raises(ValueError):
            CorruptionSpec(kind="static_data", rho=1.0)
        with pytest.raises(ValueError):
            CorruptionSpec(kind="static_data", rho=-0.1)

    def test_zero_rho_normalizes_to_none(self):
        spec = CorruptionSpec(kind="omniscient", rho=0.0)
        assert spec.kind == "none"

    def test_positive_rho_without_an_attack_is_rejected(self):
        # Accepted, it would run clean while labelled as attacked.
        with pytest.raises(ValueError, match="needs an attack kind"):
            CorruptionSpec(kind="none", rho=0.3)


def weighted_realize(spec, alphas, fallback_seed=0):
    """Reference: the corrupted mask drawn by arbitrary data weights ``alphas``."""
    alphas = np.asarray(alphas, dtype=float).ravel()
    mask = np.zeros(alphas.shape[0], dtype=bool)
    if spec.kind != "none":
        seed = spec.seed if spec.seed is not None else fallback_seed
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xC0DE]))
        order = rng.permutation(mask.shape[0])
        count = np.searchsorted(np.cumsum(alphas[order]), spec.rho, side="right") + 1
        mask[order[:count]] = True
    return mask


class TestSelectCorrupted:
    """The weight rule ``realize`` draws corrupted devices by: 1/K per device."""

    def test_rho_zero_selects_nobody(self):
        # rho = 0 turns any kind into "none", which marks nobody.
        mask = realize(CorruptionSpec(kind="static_data", rho=0.0), 10)
        assert mask.dtype == bool and mask.shape == (10,) and not mask.any()

    def test_uniform_four_devices_at_quarter(self):
        # each device holds weight 1/4; one device only reaches 0.25, and
        # cumulative weight must strictly pass rho, so two are needed
        mask = realize(CorruptionSpec(kind="omniscient", rho=0.25, seed=1), 4)
        assert mask.sum() == 2

    def test_stops_once_weight_exceeds_rho(self):
        alphas = np.full(100, 0.01)
        mask = realize(CorruptionSpec(kind="omniscient", rho=0.25, seed=2), 100)
        weight = alphas[mask].sum()
        assert weight > 0.25 - 1e-12
        assert weight - alphas[mask].min() <= 0.25 + 1e-12

    def test_ids_sorted_and_unique(self):
        # A mask holds each device at most once, in id order.
        mask = realize(CorruptionSpec(kind="omniscient", rho=0.4, seed=3), 20)
        ids = np.flatnonzero(mask)
        assert ids.tolist() == sorted(set(ids.tolist())) and len(ids) == mask.sum() > 0

    @given(
        seed=RNG_SEEDS,
        rho=st.floats(min_value=0.01, max_value=0.9),
        devices=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=50, deadline=None)
    def test_weight_always_strictly_exceeds_rho(self, seed, rho, devices):
        mask = realize(CorruptionSpec(kind="static_data", rho=rho, seed=seed), devices)
        assert mask.sum() / devices > rho - 1e-12
        # One device fewer would not have exceeded rho.
        assert (mask.sum() - 1) / devices <= rho + 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_same_mask_as_the_data_weight_rule(self, seed):
        # Sums of 1/K are inexact, so a count of floor(rho * K) + 1 would
        # differ: at K = 100 and rho = 0.25 the float sum gives 25, not 26.
        for devices in range(1, 201):
            alphas = np.full(devices, 1.0 / devices)
            grid = [0.05, 0.1, 0.25, 0.3, 1 / 3, 0.45, 0.5, 0.9, 0.99]
            grid += [j / devices for j in range(1, devices, max(1, devices // 10))]
            for rho in grid:
                spec = CorruptionSpec(kind="omniscient", rho=rho, seed=seed)
                expected = weighted_realize(spec, alphas)
                assert np.array_equal(realize(spec, devices), expected), (devices, rho)
        spec = CorruptionSpec(kind="omniscient", rho=0.25, seed=seed)
        assert realize(spec, 100).sum() == 25


class TestRealize:
    def test_none_realizes_empty(self):
        mask = realize(CorruptionSpec(), 5)
        assert mask.dtype == bool and mask.shape == (5,) and not mask.any()

    def test_deterministic_in_spec_seed(self):
        a = realize(CorruptionSpec(kind="omniscient", rho=0.25, seed=9), 50)
        b = realize(CorruptionSpec(kind="omniscient", rho=0.25, seed=9), 50)
        assert np.array_equal(a, b)

    def test_fallback_seed_used_when_spec_seed_missing(self):
        a = realize(CorruptionSpec(kind="omniscient", rho=0.25), 50, fallback_seed=1)
        b = realize(CorruptionSpec(kind="omniscient", rho=0.25), 50, fallback_seed=2)
        assert not np.array_equal(a, b)

    def test_ids_are_sorted_and_outweigh_rho(self):
        mask = realize(CorruptionSpec(kind="static_data", rho=0.3, seed=0), 20)
        assert mask.dtype == bool and mask.shape == (20,)
        assert mask.sum() / 20 > 0.3


class TestPoisonTransforms:
    def test_static_negates_features_only(self):
        x = np.array([[1.0, -2.0], [0.5, 0.0]])
        assert np.array_equal(poison_static(x), -x)

    def test_static_returns_fresh_arrays(self):
        x = np.ones((3, 2))
        px = poison_static(x)
        px[0, 0] = 99.0
        assert x[0, 0] == 1.0

    def test_static_is_involutive(self):
        x = np.random.default_rng(5).standard_normal((4, 3))
        assert np.array_equal(poison_static(poison_static(x)), x)

    def test_adaptive_relabels_against_broadcast(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((10, 3))
        w = rng.standard_normal(3)
        x_before = x.copy()
        assert np.array_equal(poison_adaptive(x, w), x @ -w)
        assert np.array_equal(x, x_before)

    def test_adaptive_local_optimum_is_negated_model(self):
        from fedgm.tasks import exact_optimum

        rng = np.random.default_rng(7)
        x = rng.standard_normal((40, 3))
        w = rng.standard_normal(3)
        assert np.allclose(exact_optimum(x, poison_adaptive(x, w)), -w, atol=1e-10)


class TestOmniscientUpdates:
    @given(seed=RNG_SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_flips_the_weighted_mean_exactly(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 12))
        d = int(rng.integers(1, 6))
        updates = rng.standard_normal((m, d))
        weights = rng.uniform(0.2, 2.0, m)
        mask = np.zeros(m, dtype=bool)
        mask[rng.choice(m, size=int(rng.integers(1, m)), replace=False)] = True
        out = omniscient_updates(updates, weights, mask)
        honest_mean = (weights @ updates) / weights.sum()
        post_mean = (weights @ out) / weights.sum()
        scale = max(1.0, float(np.abs(honest_mean).max()))
        assert np.abs(post_mean + honest_mean).max() <= 1e-12 * scale

    def test_honest_rows_untouched(self):
        rng = np.random.default_rng(8)
        updates = rng.standard_normal((5, 2))
        mask = np.array([False, True, False, False, True])
        out = omniscient_updates(updates, np.ones(5), mask)
        assert np.array_equal(out[~mask], updates[~mask])
        assert np.allclose(out[mask][0], out[mask][1])

    def test_all_corrupted_rows_return_the_negated_mean(self):
        rng = np.random.default_rng(9)
        updates = rng.standard_normal((4, 3))
        weights = rng.uniform(0.2, 2.0, 4)
        out = omniscient_updates(updates, weights, np.ones(4, dtype=bool))
        psi = -(weights @ updates) / weights.sum()
        assert np.array_equal(out, np.tile(psi, (4, 1)))
        assert np.allclose((weights @ out) / weights.sum(), -(weights @ updates) / weights.sum())

    def test_no_corruption_is_a_copy(self):
        updates = np.ones((3, 2))
        out = omniscient_updates(updates, np.ones(3), np.zeros(3, dtype=bool))
        assert np.array_equal(out, updates)
        out[0, 0] = 5.0
        assert updates[0, 0] == 1.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            omniscient_updates(np.ones((3, 2)), np.ones(2), np.zeros(3, dtype=bool))
