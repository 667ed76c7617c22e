"""Acceptance gate: ten numbered behavioral criteria, one verdict line each.

Each test computes its criterion end to end, prints a single
"ACCEPTANCE NN <what was checked>: PASS/FAIL" line, then asserts.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from fedgm.corruption import CorruptionSpec, omniscient_updates
from fedgm.fl_core import (
    AggregatorSpec,
    LocalSGD,
    LrSchedule,
    RoundConfig,
    run_federated,
    run_rfa_doubling,
)
from fedgm.geomed import WeightedPointSet, smoothed_weiszfeld
from fedgm.secure_avg import SecureAverageOracle
from fedgm.tasks import generate_ls_task, least_squares_loss

from conftest import (
    POOL_NU,
    brute_force_gm,
    diameter,
    displacement_bound,
    gm_objective,
    hull_distance,
    smoothed_objective,
)


def _verdict(num: int, desc: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {desc}: {status}{suffix}")
    return ok


# ----------------------------------------------------------------------
# criteria 1-3: the solved instance pool from conftest


def test_criterion_01_solver_accuracy(gm_pool):
    gaps = [
        (inst.result.g_value - inst.g_ref) / inst.g_ref for inst in gm_pool.instances
    ]
    ok = (
        len(gaps) == 100
        and all(g <= 1e-6 for g in gaps)
        and gm_pool.build_seconds < 10.0
    )
    assert _verdict(
        1,
        "budget-50 solver within 1e-6 of brute force on 100 instances in under 10s",
        ok,
        f"max gap {max(gaps):.2e}, built in {gm_pool.build_seconds:.1f}s",
    )


def test_criterion_02_fast_early_progress(gm_pool):
    hits = 0
    for inst in gm_pool.instances:
        trace = inst.result.trace
        early = trace[: min(5, len(trace) - 1) + 1]
        best = min((rec.g - inst.g_ref) / inst.g_ref for rec in early)
        if best <= 1e-3:
            hits += 1
    fraction = hits / len(gm_pool.instances)
    ok = fraction >= 0.90
    assert _verdict(
        2,
        "1e-3 relative accuracy within 5 iterations on at least 90% of instances",
        ok,
        f"{hits}/{len(gm_pool.instances)} instances",
    )


def test_criterion_03_per_iteration_guarantees(gm_pool):
    descent_ok = contraction_ok = hull_ok = rate_ok = True
    nu = POOL_NU
    for inst in gm_pool.instances:
        ps, res = inst.point_set, inst.result
        trace = res.trace
        diam = diameter(ps.points)
        g_nu_star = smoothed_objective(inst.z_ref, ps, nu)
        z0_dist_sq = float(np.sum((trace[0].z - inst.z_ref) ** 2))
        min_visited_dist = float("inf")
        for t in range(len(trace) - 1):
            cur, nxt = trace[t], trace[t + 1]
            # each step must beat the curvature-weighted sufficient decrease
            step_sq = float(np.sum((nxt.z - cur.z) ** 2))
            slack = 1e-9 + 1e-7 * cur.g_nu
            if nxt.g_nu > cur.g_nu - 0.5 * cur.lipschitz * step_sq + slack:
                descent_ok = False
            # distance to the optimum must not grow while above its value
            d_cur = float(np.linalg.norm(cur.z - inst.z_ref))
            d_nxt = float(np.linalg.norm(nxt.z - inst.z_ref))
            if cur.g_nu >= g_nu_star:
                if d_nxt > d_cur * (1 + 1e-7) + 1e-9 + 1e-6 * diam:
                    contraction_ok = False
            # objective gap bound for the prefix ending after this step
            min_visited_dist = min(
                min_visited_dist,
                float(np.linalg.norm(ps.points - cur.z, axis=1).min()),
            )
            nu_hat = max(nu, min_visited_dist)
            rhs = 2.0 * z0_dist_sq / (nu_hat * (t + 1)) + nu / 2.0
            if nxt.g - inst.g_ref > rhs + 1e-9 + 1e-7 * abs(rhs):
                rate_ok = False
        for rec in trace:
            if hull_distance(rec.z, ps.points) > 1e-7 * (1.0 + diam):
                hull_ok = False
    ok = descent_ok and contraction_ok and hull_ok and rate_ok
    assert _verdict(
        3,
        "per-iteration descent, contraction and hull containment plus prefix rate bound",
        ok,
        f"descent={descent_ok} contraction={contraction_ok} hull={hull_ok} rate={rate_ok}",
    )


# ----------------------------------------------------------------------
# criterion 4: bounded displacement under sub-half corruption


def test_criterion_04_corruption_displacement():
    rng = np.random.default_rng(11)
    honest = rng.standard_normal((8, 3))
    ref = brute_force_gm(WeightedPointSet(honest, np.ones(8)))
    max_honest_dist = float(np.linalg.norm(honest - ref, axis=1).max())
    far = np.array([1e6, 0.0, 0.0])

    bounded_ok = True
    worst_margin = 0.0
    for theta in (0.1, 0.25, 0.4, 0.49):
        pts = np.vstack([honest, far])
        wts = np.concatenate([np.full(8, (1 - theta) / 8), [theta]])
        ps = WeightedPointSet(pts, wts)
        res = smoothed_weiszfeld(ps, nu=1e-6, budget=300, rel_tol=0.0)
        g_bf = gm_objective(brute_force_gm(ps), ps)
        eps = max(res.g_value - g_bf, 0.0) + 1e-6
        bound = displacement_bound(theta, eps, max_honest_dist)
        disp = float(np.linalg.norm(res.z - ref))
        worst_margin = max(worst_margin, disp / bound)
        if disp > bound:
            bounded_ok = False

    pts = np.vstack([honest, far])
    wts = np.concatenate([np.full(8, 0.4 / 8), [0.6]])
    res = smoothed_weiszfeld(
        WeightedPointSet(pts, wts), nu=1e-6, budget=300, rel_tol=0.0
    )
    majority_disp = float(np.linalg.norm(res.z - ref))
    unbounded_ok = majority_disp > 1e4

    ok = bounded_ok and unbounded_ok
    assert _verdict(
        4,
        "displacement within the theta<1/2 bound; majority corruption moves it past 1e4",
        ok,
        f"worst bounded ratio {worst_margin:.3f}, theta=0.6 displacement {majority_disp:.3g}",
    )


# ----------------------------------------------------------------------
# criterion 5: exact sign flip of the aggregate under the strongest attack


def test_criterion_05_omniscient_exactness():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 16))
        d = int(rng.integers(1, 21))
        updates = rng.standard_normal((m, d))
        weights = rng.uniform(0.2, 2.0, m)
        mask = np.zeros(m, dtype=bool)
        mask[rng.choice(m, size=int(rng.integers(1, m)), replace=False)] = True
        out = omniscient_updates(updates, weights, mask)
        target = -(weights @ updates) / weights.sum()
        got = (weights @ out) / weights.sum()
        rel = float(np.abs(got - target).max()) / max(1.0, float(np.abs(target).max()))
        worst = max(worst, rel)
    ok = worst <= 1e-12
    assert _verdict(
        5,
        "substituted updates negate the honest round mean exactly over 50 rounds",
        ok,
        f"worst relative deviation {worst:.2e}",
    )


# ----------------------------------------------------------------------
# criteria 6-7: the frozen federated benchmark (shared runs)

FL_SEEDS = (0, 1, 2, 3, 4)
FL_ROUNDS = 100


@pytest.fixture(scope="module")
def fl_runs():
    tic = time.perf_counter()
    runs: dict = {}
    f0: dict = {}
    for seed in FL_SEEDS:
        task, partition = generate_ls_task(
            d=10, devices=100, samples_per_device=50, noise_std=0.1, seed=seed
        )
        f0[seed] = task.loss(np.zeros(task.d))[0]
        for aggregator in ("mean", "rfa"):
            for attacked in (False, True):
                corruption = (
                    CorruptionSpec(kind="omniscient", rho=0.25, seed=seed)
                    if attacked
                    else CorruptionSpec()
                )
                config = RoundConfig(
                    devices_per_round=10,
                    local=LocalSGD(batch_size=10, epochs=3),
                    lr=LrSchedule(gamma0=18.0, decay=0.5, decay_every=50),
                    aggregator=AggregatorSpec(kind=aggregator, budget=3),
                )
                runs[(aggregator, attacked, seed)] = run_federated(
                    task, partition, corruption, config, rounds=FL_ROUNDS, seed=seed
                )
    return {"runs": runs, "f0": f0, "seconds": time.perf_counter() - tic}


def test_criterion_06_attack_breaks_mean_not_gm(fl_runs):
    runs, f0 = fl_runs["runs"], fl_runs["f0"]
    blown_up = sum(
        any(t.train_loss > 10.0 * f0[seed] for t in runs[("mean", True, seed)])
        for seed in FL_SEEDS
    )
    ratios = [
        runs[("rfa", True, seed)][-1].train_loss
        / runs[("mean", False, seed)][-1].train_loss
        for seed in FL_SEEDS
    ]
    ok = blown_up >= 4 and all(r <= 2.0 for r in ratios) and fl_runs["seconds"] < 60.0
    assert _verdict(
        6,
        "attacked mean exceeds 10x initial loss >=4/5 seeds; attacked budget-3 GM "
        "stays <=2x clean final 5/5, all in under 60s",
        ok,
        f"blown up {blown_up}/5, worst GM ratio {max(ratios):.2f}, "
        f"{fl_runs['seconds']:.1f}s",
    )


def test_criterion_07_clean_parity_and_call_budget(fl_runs):
    runs = fl_runs["runs"]
    devs = []
    for seed in FL_SEEDS:
        mean_final = runs[("mean", False, seed)][-1].train_loss
        rfa_final = runs[("rfa", False, seed)][-1].train_loss
        devs.append(abs(rfa_final - mean_final) / mean_final)
    parity_ok = all(dev <= 0.10 for dev in devs)
    rfa_calls = [
        t.oracle_calls for seed in FL_SEEDS for t in runs[("rfa", False, seed)]
    ]
    mean_calls = [
        t.oracle_calls for seed in FL_SEEDS for t in runs[("mean", False, seed)]
    ]
    calls_ok = max(rfa_calls) <= 3 and set(mean_calls) == {1}
    ok = parity_ok and calls_ok
    assert _verdict(
        7,
        "clean GM final within 10% of mean aggregation at <=3 vs 1 oracle calls per round",
        ok,
        f"worst final deviation {max(devs):.2%}, max GM calls/round {max(rfa_calls)}",
    )


# ----------------------------------------------------------------------
# criterion 8: doubling local steps contract; constant steps stall under noise


def test_criterion_08_doubling_schedule():
    medians = []
    reached = True
    for seed in (0, 1):
        task, partition = generate_ls_task(
            d=40, devices=30, samples_per_device=120, noise_std=0.0,
            seed=seed, test_samples=100,
        )
        traces = run_rfa_doubling(
            task, partition, CorruptionSpec(),
            devices_per_round=10, base_steps=2, rounds=16, seed=seed,
        )
        series = [float(np.sum(task.optimum**2))] + [
            t.dist_to_opt_sq for t in traces
        ]
        ratios = []
        for cur, nxt in zip(series, series[1:]):
            if cur <= 1e-10:
                break
            ratios.append(nxt / cur)
        medians.append(statistics.median(ratios))
        reached = reached and min(series) <= 1e-10
    contract_ok = reached and all(0.3 <= med <= 0.9 for med in medians)

    task, partition = generate_ls_task(
        d=40, devices=30, samples_per_device=120, noise_std=0.1,
        seed=0, test_samples=100,
    )
    noisy = run_rfa_doubling(
        task, partition, CorruptionSpec(),
        devices_per_round=10, base_steps=8, rounds=80, seed=0, schedule="constant",
    )
    dists = [t.dist_to_opt_sq for t in noisy]
    plateau_ok = min(dists) > 1e-4 and dists[-1] > 1e-3

    ok = contract_ok and plateau_ok
    assert _verdict(
        8,
        "noiseless doubling contracts to 1e-10 with median ratio in [0.3, 0.9]; "
        "noisy constant steps stay bounded away from zero",
        ok,
        f"medians {[f'{m:.2f}' for m in medians]}, noisy floor {min(dists):.2e}",
    )


# ----------------------------------------------------------------------
# criterion 9: analytic gradients against central finite differences


def _central_fd(loss, w, args, h=1e-6):
    g = np.zeros_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (loss(w + e, *args) - loss(w - e, *args)) / (2 * h)
    return g


def test_criterion_09_gradient_probes():
    rng = np.random.default_rng(905)
    errors = []
    for i, d in enumerate((1, 2, 3, 4, 6, 8, 10, 16, 25, 40)):
        task, _ = generate_ls_task(
            d, 4, 30, 0.2, seed=100 + i, test_samples=20
        )
        x, y = task.train_features, task.train_labels
        for _ in range(10):
            w = rng.standard_normal(d)
            g = task.gradient(w, x, y)
            fd = _central_fd(least_squares_loss, w, (x, y))
            errors.append(
                float(np.abs(g - fd).max()) / max(1.0, float(np.abs(g).max()))
            )
    ok = len(errors) == 100 and max(errors) <= 1e-5
    assert _verdict(
        9,
        "analytic gradients match central finite differences to 1e-5 on 100 probes",
        ok,
        f"worst relative error {max(errors):.2e}",
    )


# ----------------------------------------------------------------------
# criterion 10: masked aggregation fidelity and exact call accounting


def test_criterion_10_masking_and_call_accounting():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 13))
        d = int(rng.integers(1, 9))
        values = rng.standard_normal((m, d)) * 10 ** rng.uniform(-2, 2)
        weights = rng.uniform(0.1, 3.0, m)
        plain = SecureAverageOracle("plain").average(values, weights)
        masked = SecureAverageOracle("masked").average(values, weights)
        diff = float(np.abs(masked - plain).max()) / max(
            1.0, float(np.abs(plain).max())
        )
        worst = max(worst, diff)
    mask_ok = worst <= 1e-9

    solver_ok = True
    for i in range(20):
        gen = np.random.default_rng(2000 + i)
        m = int(gen.integers(3, 10))
        ps = WeightedPointSet(gen.standard_normal((m, 3)), gen.uniform(0.5, 1.5, m))
        oracle = SecureAverageOracle("plain")
        res = smoothed_weiszfeld(ps, budget=10, rel_tol=0.0, oracle=oracle)
        if oracle.call_count != res.oracle_calls:
            solver_ok = False
        if res.oracle_calls != res.iterations + 1:
            solver_ok = False

    task, partition = generate_ls_task(3, 8, 12, 0.1, seed=0, test_samples=20)
    federated_ok = True
    for kind in ("mean", "rfa", "median_of_means", "sgd_step"):
        spec = AggregatorSpec(
            kind=kind, budget=3, groups=2 if kind == "median_of_means" else 1
        )
        config = RoundConfig(
            devices_per_round=5,
            local=LocalSGD(batch_size=6),
            lr=LrSchedule(gamma0=0.3),
            aggregator=spec,
        )
        oracle = SecureAverageOracle("plain")
        traces = run_federated(
            task, partition, CorruptionSpec(), config, rounds=6, seed=1, oracle=oracle
        )
        if oracle.call_count != sum(t.oracle_calls for t in traces):
            federated_ok = False
        for t in traces:
            if kind in ("mean", "sgd_step") and t.oracle_calls != 1:
                federated_ok = False
            if kind == "median_of_means" and t.oracle_calls != 2:
                federated_ok = False
            if kind == "rfa" and not 1 <= t.oracle_calls <= 3:
                federated_ok = False

    ok = mask_ok and solver_ok and federated_ok
    assert _verdict(
        10,
        "masked oracle matches plain to 1e-9 on 100 inputs; call counters match "
        "per-aggregator accounting exactly",
        ok,
        f"worst mask deviation {worst:.2e}, solver={solver_ok}, rounds={federated_ok}",
    )
