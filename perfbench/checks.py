"""Correctness checks made apart from the program.

Every function returns a list of problems; an empty list means the output
passed. None of them compares against a saved copy of earlier output: the
references are computed here with numpy and scipy, or are properties the
method must have. The thresholds and their reasons are listed in README.md.
"""

from __future__ import annotations

import math
import statistics

import numpy as np
from scipy import optimize

# fl-attack: median train loss over the second half of the rounds, as a
# multiple of the loss at the least-squares optimum. rfa reads at most 1.3
# on 10 seeds; the weighted mean under the same attack reads at least 17.
LOSS_RATIO_MAX = 2.0
# doubling: the target the run must reach, and the band for the median
# per-round contraction ratio (the paper's linear rate; 0.46 to 0.54 seen).
DIST_TARGET = 1e-10
RATIO_RANGE = (0.3, 0.9)
# masked-wide: masked and plain runs of one seed agree to this relative
# tolerance per round. Masks cancel to about 2e-13 today; a 1e-6 error in
# the average moves the losses by about 1e-7.
MASK_REL_TOL = 1e-9
# gm-solve: allowed relative excess of the solver's objective over the
# L-BFGS minimum, and the agreement of the objective the solver reports
# with the one computed here.
GM_REL_GAP = 1e-6
REPORTED_G_REL_TOL = 1e-9


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def least_squares_optimum(features: np.ndarray, labels: np.ndarray):
    """Pooled least-squares minimizer by numpy's SVD solver, and its loss."""
    w, *_ = np.linalg.lstsq(features, labels, rcond=None)
    r = features @ w - labels
    return w, float(0.5 * np.mean(r * r))


def check_accounting(per_round_calls, lo, hi, oracle_calls, traffic, m, d) -> list[str]:
    """Calls per round in [lo, hi], summing to the oracle's own counter,
    and each call costing m*d + m^2 traffic units."""
    problems = []
    bad = [c for c in per_round_calls if not lo <= c <= hi]
    if bad:
        problems.append(f"oracle calls per round outside [{lo}, {hi}]: {bad[:5]}")
    if sum(per_round_calls) != oracle_calls:
        problems.append(f"per-round calls sum to {sum(per_round_calls)}, oracle counted {oracle_calls}")
    if traffic != oracle_calls * (m * d + m * m):
        problems.append(f"traffic {traffic} != {oracle_calls} calls x (m*d + m^2) at m={m}, d={d}")
    return problems


def check_fl_attack(train_losses, test_losses, rounds, loss_opt) -> list[str]:
    problems = []
    if len(train_losses) != rounds:
        problems.append(f"{len(train_losses)} of {rounds} rounds completed")
    if not all(math.isfinite(v) for v in list(train_losses) + list(test_losses)):
        return problems + ["non-finite loss"]
    if min(train_losses) < loss_opt * (1.0 - 1e-9):
        problems.append(f"train loss {min(train_losses)!r} below the optimum's {loss_opt!r}")
    late = statistics.median(train_losses[len(train_losses) // 2 :])
    if late > LOSS_RATIO_MAX * loss_opt:
        problems.append(
            f"late median train loss {late:.4g} is {late / loss_opt:.3g}x the optimum's, "
            f"above {LOSS_RATIO_MAX}x"
        )
    return problems


def check_doubling(
    dists, start_dist, final_train_loss, program_optimum, features, labels
) -> list[str]:
    """Noiseless doubling run: reaches the target at a linear rate.

    ``dists`` are the program's per-round squared distances to its optimum.
    The optimum is checked against lstsq here, and the final train loss
    must agree with the final distance: for noiseless labels the loss is
    at most 0.5 * lambda_max * dist^2.
    """
    problems = []
    own, _ = least_squares_optimum(features, labels)
    if np.linalg.norm(program_optimum - own) > 1e-8 * np.linalg.norm(own):
        problems.append("task optimum differs from the lstsq solution")
    if not dists or not math.isfinite(dists[-1]) or dists[-1] > DIST_TARGET:
        return problems + [f"squared distance {dists[-1] if dists else None!r} > {DIST_TARGET}"]
    series = [start_dist] + list(dists)
    ratios = []
    for cur, nxt in zip(series, series[1:]):
        if cur <= DIST_TARGET:
            break
        ratios.append(nxt / cur)
    med = statistics.median(ratios)
    if not RATIO_RANGE[0] <= med <= RATIO_RANGE[1]:
        problems.append(f"median contraction ratio {med:.3g} outside {RATIO_RANGE}")
    lam_max = float(np.linalg.eigvalsh(features.T @ features / features.shape[0])[-1])
    if final_train_loss > 0.5 * lam_max * DIST_TARGET + 1e-20:
        problems.append(f"final train loss {final_train_loss!r} too large for dist^2 <= {DIST_TARGET}")
    return problems


def check_masked(rows, reference_rows) -> list[str]:
    """Per-round (train, test, dist^2, calls, selected) of the masked run
    against the plain-oracle run of the same seed."""
    if len(rows) != len(reference_rows):
        return [f"{len(rows)} rounds, plain run has {len(reference_rows)}"]
    problems = []
    for t, (got, ref) in enumerate(zip(rows, reference_rows)):
        if got[3:] != ref[3:]:
            problems.append(f"round {t}: calls/selection {got[3:]} != plain {ref[3:]}")
        gap = max(rel_diff(a, b) for a, b in zip(got[:3], ref[:3]))
        if not gap <= MASK_REL_TOL:
            problems.append(f"round {t}: masked differs from plain by {gap:.2e} relative")
    return problems


def gm_objective(points: np.ndarray, weights: np.ndarray, z: np.ndarray) -> float:
    """sum_k a_k ||z - p_k|| with the weights normalized to sum to one."""
    diff = points - z
    return float(weights @ np.sqrt(np.einsum("ij,ij->i", diff, diff)) / weights.sum())


def gm_reference(points: np.ndarray, weights: np.ndarray):
    """Geometric median by scipy L-BFGS on the exact objective, started at
    the coordinate-wise median. Returns (z, objective)."""
    a = weights / weights.sum()

    def fun(z):
        diff = z - points
        r = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        grad = (a / np.maximum(r, 1e-300)) @ diff
        return float(a @ r), grad

    res = optimize.minimize(
        fun,
        np.median(points, axis=0),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 2000, "gtol": 1e-12, "ftol": 1e-15},
    )
    return np.asarray(res.x), float(res.fun)


def check_gm(z, reported_g, points, weights, g_ref) -> list[str]:
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        return ["solver returned a non-finite point"]
    problems = []
    g = gm_objective(points, weights, z)
    if (g - g_ref) / g_ref > GM_REL_GAP:
        problems.append(f"objective {g!r} exceeds the L-BFGS minimum {g_ref!r} by more than {GM_REL_GAP}")
    if not rel_diff(reported_g, g) <= REPORTED_G_REL_TOL:
        problems.append(f"reported objective {reported_g!r} != recomputed {g!r}")
    return problems


def displacement_bound(theta: float, eps: float, r: float) -> float:
    """(2 (1 - theta) r + eps) / (1 - 2 theta): how far an eps-approximate
    geometric median can sit from the honest points' median when weight
    theta < 1/2 is corrupted and r is the honest points' radius about it."""
    return (2.0 * (1.0 - theta) * r + eps) / (1.0 - 2.0 * theta)


def check_gm_corrupted(z, z_honest, bound) -> list[str]:
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        return ["solver returned a non-finite point"]
    dist = float(np.linalg.norm(z - z_honest))
    if dist > bound:
        return [f"aggregate {dist:.3g} from the honest median, bound {bound:.3g}"]
    return []
