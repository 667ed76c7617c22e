"""An independent reference loop for ``run_federated``, and the property that they agree.

``reference_run`` is written from the laws that the library's docstrings
state, not from its code. It takes one device at a time and one local step
at a time, and every sum it forms is a plain numpy or Python reduction:

- the server samples devices and the devices draw their samples from two
  streams, ``SeedSequence([seed, 0x5E7])`` and ``SeedSequence([seed, 0xFED])``;
- the corrupted devices are drawn in a uniformly random order, from
  ``SeedSequence([seed, 0xC0DE])``, until their weight of 1/K each strictly
  exceeds rho;
- a minibatch is the ``batch_size`` rows with the smallest of the shard's n
  keys, smallest first, every round drawing the (steps, m, n) keys of its m
  devices as one call; a tail-averaged round draws its (steps, m) row
  numbers as one call and averages iterates ceil(steps/2)+1 through steps;
- a step from v on rows x with labels y is ``v - gamma * x.T @ (x v - y) / b``,
  at the rate gamma0 * decay^(t // decay_every) of round t;
- static poisoning negates the corrupted devices' labels, adaptive
  poisoning relabels a selected corrupted device's rows as <x, -w> against
  the broadcast model w, and the omniscient attack sends from every
  corrupted device the one vector that makes the round's weighted mean the
  negation of the weighted mean of every faithful update;
- the aggregators are the weighted mean, Weiszfeld steps that reweight
  each point by a / max(r, nu), and median-of-means over the contiguous
  groups that ``np.array_split`` gives;
- the masked oracle returns the exact sum of fixed-point encodings, here
  summed as Python integers.

The property then draws small configs and asks every trace column of the
two loops to agree. The solver runs at ``rel_tol`` 0, so a solve stops
before its budget only on a tie of g_nu in its last bit; ``weiszfeld`` says
why the reference takes each solve's step count from the library, and how
it checks that count.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgm import fl_core
from fedgm.corruption import CORRUPTION_KINDS, CorruptionSpec
from fedgm.fl_core import (
    AGGREGATOR_KINDS,
    DIVERGENCE_LOSS,
    NU,
    AggregatorSpec,
    LocalSGD,
    LrSchedule,
    RoundConfig,
    TailAveragedSGD,
    run_federated,
)
from fedgm.geomed import smoothed_weiszfeld
from fedgm.secure_avg import SecureAverageOracle
from fedgm.tasks import generate_ls_task

# Relative agreement of every real trace column.
RTOL = 1e-12


def plain_average(values, weights):
    return sum(b * v for b, v in zip(weights, values)) / sum(weights)


def masked_average(values, weights):
    """The exact sum of each column's fixed-point encodings of [beta v, beta], decoded.

    Column c is encoded as round(x * 2^shift_c) with shift_c = 62 - e_c -
    ceil(log2 m), where 2^e_c bounds the column's largest magnitude from
    above, as ``math.frexp`` gives it. A column that holds inf or NaN cannot
    be encoded, and such a call gets the plain result.
    """
    columns = np.column_stack([values * weights[:, None], weights])
    if not np.isfinite(columns).all():
        return plain_average(values, weights)
    m = len(values)
    decoded = []
    for column in columns.T:
        shift = 62 - math.frexp(max(abs(column)))[1] - (m - 1).bit_length()
        total = sum(round(math.ldexp(float(x), shift)) for x in column)
        decoded.append(math.ldexp(float(total), -shift))
    return np.array(decoded[:-1]) / decoded[-1]


class Oracle:
    def __init__(self, mode):
        self.average_of = masked_average if mode == "masked" else plain_average
        self.calls = 0

    def average(self, values, weights):
        self.calls += 1
        return self.average_of(values, weights)


def weiszfeld(points, weights, z, budget, rel_tol, average, steps):
    """``steps`` smoothed Weiszfeld steps from z, each a reweighted average by a / max(r, NU).

    ``steps`` is the count the library's solve took. It must lie in [1,
    ``budget``], since two or more points take at least one step, and a
    solve that stopped before its budget must have stopped where g_nu
    improved by at most ``rel_tol`` relative, as the reference sees it
    within ``RTOL``. At ``rel_tol`` 0 that is a tie of g_nu in its last
    bit, which the bits of the iterates decide wherever the objective is
    flat: on the segment between two points, or at a converged iterate. So
    the reference takes the count and checks that it is lawful, rather
    than finding its own.
    """
    assert 1 <= steps <= budget
    a = weights / sum(weights)
    for t in range(steps + 1):
        r = np.array([np.linalg.norm(z - p) for p in points])
        # Each distance within NU is replaced by the quadratic r^2 / (2 NU) + NU / 2.
        g_nu = sum(a * np.where(r <= NU, r * r / (2 * NU) + NU / 2, r))
        if t == steps:
            assert steps == budget or abs(previous - g_nu) / g_nu <= rel_tol + RTOL
            return z
        previous = g_nu
        z = average(points, a / np.maximum(r, NU))


def aggregate(updates, weights, spec, oracle, w, solves):
    """One round's aggregate; ``solves`` yields the step count of each of the library's solves."""
    if spec.kind in ("mean", "sgd_step") or len(updates) == 1:
        return oracle.average(updates, weights)
    if spec.kind == "rfa":
        budget, rel_tol = spec.budget, spec.rel_tol
        return weiszfeld(updates, weights, w, budget, rel_tol, oracle.average, next(solves))
    groups = np.array_split(np.arange(len(updates)), spec.groups)
    means = np.array([oracle.average(updates[g], weights[g]) for g in groups])
    group_weights = np.array([sum(weights[g]) for g in groups])
    # Solved server side from the weighted mean of the group means, through no oracle.
    start = plain_average(means, group_weights)
    budget, rel_tol = max(spec.budget, 50), min(spec.rel_tol, 1e-9)
    return weiszfeld(means, group_weights, start, budget, rel_tol, plain_average, next(solves))


def corrupted_devices(spec, devices, seed):
    """The set of corrupted device ids: a random order, taken until their weight exceeds rho."""
    if spec.kind == "none":
        return set()
    order = np.random.default_rng(np.random.SeedSequence([seed, 0xC0DE])).permutation(devices)
    marked, weight = set(), 0.0
    for k in order:
        marked.add(int(k))
        weight += 1.0 / devices
        if weight > spec.rho:
            break
    return marked


def local_update(x, y, w, gamma, rows_per_step, tail):
    """Steps from w, step s on rows ``rows_per_step[s]``; the mean of the last ``tail`` iterates."""
    v, iterates = w.copy(), []
    for rows in rows_per_step:
        xs, ys = x[rows], y[rows]
        v = v - gamma * (xs.T @ (xs @ v - ys)) / len(rows)
        iterates.append(v)
    return sum(iterates[-tail:]) / tail


def reference_run(task, partition, corruption, config, rounds, seed, mode, solves):
    """The rows (round, train, test, dist^2, calls, corrupted, selected) of one run.

    ``solves`` yields the step count of each geometric-median solve the library ran, in order.
    """
    features = partition.device_features
    labels = np.array(partition.device_labels)
    devices, n, _ = features.shape
    server = np.random.default_rng(np.random.SeedSequence([seed, 0x5E7]))
    device = np.random.default_rng(np.random.SeedSequence([seed, 0xFED]))
    corrupted = corrupted_devices(corruption, devices, seed)
    if corruption.kind == "static_data":
        for k in corrupted:
            labels[k] = -labels[k]
    oracle, local, agg, lr = Oracle(mode), config.local, config.aggregator, config.lr
    m = config.devices_per_round
    weights = np.full(m, n / (m * n))
    w = np.zeros(task.d)
    rows = []
    for t in range(rounds):
        selected = np.sort(server.choice(devices, size=m, replace=False))
        gamma = lr.gamma0 * lr.decay ** (t // lr.decay_every)
        bad = np.array([k in corrupted for k in selected])
        if corruption.kind == "adaptive_data":
            for k in selected[bad]:
                labels[k] = features[k] @ -w
        if isinstance(local, LocalSGD):
            steps = 1 if agg.kind == "sgd_step" else math.ceil(n * local.epochs / local.batch_size)
            # Device j's rows at step s: its batch_size smallest keys, smallest first.
            plans = device.random((steps, m, n)).argsort(axis=-1)[..., : local.batch_size]
            tail = 1
        else:
            steps = local.steps * 2**t if local.schedule == "doubling" else local.steps
            plans = device.integers(0, n, size=(steps, m))[..., None]
            tail = steps - math.ceil(steps / 2)
        updates = np.array(
            [
                local_update(features[k], labels[k], w, gamma, plans[:, j], tail)
                for j, k in enumerate(selected)
            ]
        )
        if corruption.kind == "omniscient" and bad.any():
            faithful_mean = plain_average(updates, weights)
            honest_sum = sum(a * u for a, u, b in zip(weights, updates, bad) if not b)
            updates[bad] = (-faithful_mean * sum(weights) - honest_sum) / sum(weights[bad])
        calls = oracle.calls
        w = aggregate(updates, weights, agg, oracle, w, solves)
        train = 0.5 * np.mean((task.train_features @ w - task.train_labels) ** 2)
        test = 0.5 * np.mean((task.test_features @ w - task.test_labels) ** 2)
        dist = sum((w - task.optimum) ** 2)
        rows.append((t, train, test, dist, oracle.calls - calls, int(bad.sum()), tuple(selected)))
        if not math.isfinite(train) or train > DIVERGENCE_LOSS:
            break
    return rows


@st.composite
def experiments(draw, aggregator, kind):
    """A small task, corruption, round config, round count, seed and oracle mode."""
    # median_of_means needs two devices a round, to hold two groups.
    least = 2 if aggregator == "median_of_means" else 1
    d = draw(st.integers(1, 5))
    devices = draw(st.integers(least, 8))
    n = draw(st.integers(-(-d // devices), 6))
    m = draw(st.integers(least, devices))
    rho = 0.0 if kind == "none" else draw(st.sampled_from([0.1, 0.25, 0.4]))
    if aggregator == "sgd_step" or draw(st.booleans()):
        local = LocalSGD(draw(st.integers(1, n)), draw(st.integers(1, 2)))
    else:
        schedule = draw(st.sampled_from(["constant", "doubling"]))
        local = TailAveragedSGD(draw(st.integers(2, 3)), schedule)
    # Rates up to 1 keep every step non-expansive on features of norm at most 1.
    lr = LrSchedule(
        draw(st.sampled_from([0.0, 0.3, 1.0])),
        draw(st.sampled_from([1.0, 0.5])),
        draw(st.integers(1, 2)),
    )
    groups = draw(st.integers(2, m)) if aggregator == "median_of_means" else 1
    spec = AggregatorSpec(aggregator, budget=draw(st.integers(1, 4)), rel_tol=0.0, groups=groups)
    return (
        (d, devices, n, draw(st.sampled_from([0.0, 0.1]))),
        CorruptionSpec(kind, rho),
        RoundConfig(m, local, lr, spec),
        draw(st.integers(0, 5)),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.sampled_from(["plain", "masked"])),
    )


# Every aggregator meets every corruption kind in each run of the suite.
@pytest.mark.parametrize("kind", CORRUPTION_KINDS)
@pytest.mark.parametrize("aggregator", AGGREGATOR_KINDS)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_run_federated_matches_the_reference_loop(aggregator, kind, data):
    (d, devices, n, noise), corruption, config, rounds, seed, mode = data.draw(
        experiments(aggregator, kind)
    )
    task, partition = generate_ls_task(d, devices, n, noise, seed=seed, test_samples=8)
    steps = []

    def solve(*args, **kwargs):
        result = smoothed_weiszfeld(*args, **kwargs)
        steps.append(result.iterations)
        return result

    oracle = SecureAverageOracle(mode)
    with mock.patch.object(fl_core, "smoothed_weiszfeld", solve):
        traces = run_federated(task, partition, corruption, config, rounds, seed, oracle)
    solves = iter(steps)
    want = reference_run(task, partition, corruption, config, rounds, seed, mode, solves)
    assert next(solves, None) is None
    # A real column is compared relative to the larger of its two values and its
    # rounding scale. A loss comes from a quadratic about the optimum, so its terms
    # are of the size ||A|| max(|w - optimum|^2, |optimum|^2), where A is the
    # split's second-moment matrix; that is far above the loss itself where the
    # optimum is ill-conditioned and far from w. A squared distance that has shrunk
    # to nothing still carries the rounding of a model of the optimum's size.
    size = sum(task.optimum**2)
    splits = (task.train_features, task.test_features)
    curvature = [np.linalg.norm(x, 2) ** 2 / len(x) for x in splits]
    assert len(traces) == len(want)
    for trace, row in zip(traces, want):
        got = (trace.round, trace.train_loss, trace.test_loss, trace.dist_to_opt_sq)
        assert got[0] == row[0]
        reach = max(row[3], size)
        scales = (curvature[0] * reach, curvature[1] * reach, size)
        for value, expected, scale in zip(got[1:], row[1:4], scales):
            assert abs(value - expected) <= RTOL * max(abs(value), abs(expected), scale), (got, row)
        assert (trace.oracle_calls, trace.corrupted_selected, trace.selected) == row[4:]
