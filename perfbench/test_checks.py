"""Self-tests: each benchmark check accepts a right output and rejects a wrong one.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    Doubling,
    FlAttack,
    GmSolve,
    MaskedWide,
    Result,
    _clustered_points,
    trace_rows,
)

from fedgm import (  # noqa: E402
    CorruptionSpec,
    SecureAverageOracle,
    WeightedPointSet,
    run_rfa_doubling,
    smoothed_weiszfeld,
)
from fedgm.cli import merge_config, run_one_seed, validate_config  # noqa: E402
from fedgm.tasks import generate_ls_task  # noqa: E402


def _fl_attack_problems(aggregator: str) -> list[str]:
    user = {k: dict(v) for k, v in FlAttack.USER_CONFIG.items()}
    user["algorithm"]["aggregator"] = aggregator
    traces, oracle = run_one_seed(validate_config(merge_config(user)), 3)
    task, _ = generate_ls_task(d=10, devices=100, samples_per_device=50, noise_std=0.1, seed=3)
    loss_opt = checks.least_squares_optimum(task.train_features, task.train_labels)[1]
    return checks.check_fl_attack(
        [t.train_loss for t in traces], [t.test_loss for t in traces], 100, loss_opt
    ) + checks.check_accounting(
        [t.oracle_calls for t in traces], 2, 4, oracle.call_count, oracle.bytes_modeled, 10, 10
    )


def test_fl_attack_accepts_rfa_and_rejects_the_weighted_mean():
    assert _fl_attack_problems("rfa") == []
    problems = _fl_attack_problems("mean")
    assert any("late median train loss" in p for p in problems)
    assert any("outside [2, 4]" in p for p in problems)  # the mean makes one call


def test_accounting_rejects_a_miscounted_oracle():
    assert checks.check_accounting([4, 4], 2, 4, 8, 8 * 200, 10, 10) == []
    assert checks.check_accounting([4, 4], 2, 4, 9, 9 * 200, 10, 10)
    assert checks.check_accounting([4, 4], 2, 4, 8, 8 * 200 + 1, 10, 10)


def _doubling_problems(rounds: int) -> list[str]:
    op = Doubling(HERE).inputs(0)[0]
    task = op.data["task"]
    traces = run_rfa_doubling(
        task, op.data["partition"], CorruptionSpec(), devices_per_round=10,
        base_steps=2, rounds=rounds, seed=op.seed,
    )
    return checks.check_doubling(
        [t.dist_to_opt_sq for t in traces], float(np.sum(task.optimum**2)),
        traces[-1].train_loss, task.optimum, task.train_features, task.train_labels,
    )


def test_doubling_accepts_the_full_run_and_rejects_one_stopped_early():
    assert _doubling_problems(Doubling.ROUNDS) == []
    assert _doubling_problems(Doubling.ROUNDS - 2)


def test_doubling_rejects_a_wrong_optimum_and_a_loss_inconsistent_with_the_distance():
    op = Doubling(HERE).inputs(0)[0]
    task = op.data["task"]
    dists = [0.5 ** (t + 1) * 1e-9 for t in range(12)]
    shifted = task.optimum + 1e-3
    assert checks.check_doubling(dists, 1e-9, 0.0, shifted, task.train_features, task.train_labels)
    assert checks.check_doubling(dists, 1e-9, 1e-6, task.optimum, task.train_features, task.train_labels)


class _PerturbedMaskedOracle(SecureAverageOracle):
    def average(self, values, weights):
        return super().average(values, weights) * (1.0 + 1e-6)


def test_masked_check_rejects_an_average_perturbed_by_1e_6():
    workload = MaskedWide(HERE)
    op = workload.inputs(0)[0]
    good = workload.run(op, None)
    assert workload.check(op, good) == []
    bad = workload._simulate(op, op.data["task"], _PerturbedMaskedOracle("masked", seed=op.seed))
    problems = checks.check_masked(trace_rows(bad), workload._ref[op.key])
    assert any("differs from plain" in p for p in problems)


def test_gm_check_rejects_the_weighted_mean_offered_as_the_median():
    points, weights = _clustered_points(np.random.default_rng(5), 2000, 50)
    _, g_ref = checks.gm_reference(points, weights)
    result = smoothed_weiszfeld(WeightedPointSet(points, weights), nu=1e-6, budget=100, rel_tol=1e-9)
    assert checks.check_gm(result.z, result.g_value, points, weights, g_ref) == []
    mean = weights @ points / weights.sum()
    g_mean = checks.gm_objective(points, weights, mean)
    assert checks.check_gm(mean, g_mean, points, weights, g_ref)
    # a solver that misreports its own objective is caught too
    assert checks.check_gm(result.z, result.g_value * (1 + 1e-6), points, weights, g_ref)
    assert checks.check_gm(np.full_like(mean, np.nan), g_mean, points, weights, g_ref)


def test_gm_huge_check_accepts_the_honest_median_and_rejects_nan_or_the_far_cluster():
    workload = GmSolve(HERE)
    op = workload.inputs(0)[-1]
    assert op.key == "huge"
    honest = op.data["honest"]
    z_h, _ = checks.gm_reference(op.data["points"][:honest], op.data["weights"][:honest])

    def problems(z):
        return workload.check(op, Result(list(z), 0, 0))

    assert problems(z_h) == []
    assert problems(np.full_like(z_h, np.nan))
    assert problems(op.data["points"][honest])


def test_tracer_self_time_and_nested_spans_of_one_name():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            with tracer.span("inner"):
                pass
    calls, total, self_s = tracer.spans["inner"]
    assert calls == 2 and 0.0 <= self_s <= total
    o_calls, o_total, o_self = tracer.spans["outer"]
    assert o_calls == 1 and abs(o_total - o_self - total) < 1e-9
