"""Shared fixtures and reference helpers for the geometric-median tests.

``row_distances``, ``eta_update``, ``lipschitz_constant``,
``smoothed_objective``, ``displacement_bound``, ``hull_distance``,
``diameter``, ``gm_objective`` and ``brute_force_gm`` (with its helper
``_weighted_coordinate_median``) are independent reference
implementations that the solver's trace, iterates, accuracy and
robustness are checked against; the package itself does not need them,
and scipy is needed only here.

The pool pairs every instance with both solver outputs (iterative and
brute force) so equivalence, convergence-speed and invariant checks can
share one build. Instances keep their optimum well separated from the
data points; an optimum sitting on a data point is handled by the solver
but approached only sublinearly, which is a different regime from the
one the equivalence checks target.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

from fedgm.geomed import GMResult, WeightedPointSet, smoothed_weiszfeld


def pytest_collection_modifyitems(items):
    """Make any RuntimeWarning raised in a test under tests/ an error.

    A test that expects an overflow says so with ``pytest.warns``. The
    filter is scoped here, not in pyproject.toml, because the perfbench
    checks run from the same root and expect overflow warnings unwrapped.
    """
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))


def pytest_terminal_summary(terminalreporter):
    """Print the mode line that the golden-output comparison records.

    ``tests/test_reruns.py`` records whether it compared the outputs byte
    for byte or within a tolerance, and against which fingerprint, so every
    run's log says so.
    """
    for reports in terminalreporter.stats.values():
        for report in reports:
            if getattr(report, "when", None) == "call":
                for name, value in report.user_properties:
                    if name == "golden":
                        terminalreporter.write_line(value)


POOL_SIZE = 100
POOL_NU = 1e-6
POOL_BUDGET = 50
INTERIOR_MARGIN = 0.1


def row_distances(points: np.ndarray, z: np.ndarray) -> np.ndarray:
    """||w_k - z|| for every row w_k, as sqrt(vecdot(points - z, points - z)).

    These are the solver's bits: ``points - z`` keeps the memory layout of
    the points, and ``np.vecdot`` sums each row in the order that layout
    gives, as the solver's blocked distance pass does.
    """
    d = points - np.asarray(z, dtype=float).ravel()
    return np.sqrt(np.vecdot(d, d))


def eta_update(z: np.ndarray, point_set: WeightedPointSet, nu: float) -> np.ndarray:
    """Per-point auxiliary distances eta_k = max(nu, ||z - w_k||)."""
    if nu <= 0.0:
        raise ValueError("nu must be positive")
    return np.maximum(row_distances(point_set.points, z), nu)


def lipschitz_constant(eta: np.ndarray, point_set: WeightedPointSet) -> float:
    """Averaging weight sum L = sum_k a_k / eta_k.

    For eta produced by ``eta_update`` on a point z in the convex hull,
    L lies in [1/diameter-scale, 1/nu]; it is the curvature of the local
    quadratic model at z.
    """
    eta = np.asarray(eta, dtype=float).ravel()
    if np.any(eta <= 0.0):
        raise ValueError("eta entries must be positive")
    return float((point_set.weights / eta).sum())


def smoothed_objective(z: np.ndarray, point_set: WeightedPointSet, nu: float) -> float:
    """g_nu(z) = sum_k a_k h_nu(||z - w_k||).

    h_nu(r) = r^2/(2 nu) + nu/2 when r <= nu, else r. The two branches
    touch with matching value and slope at r = nu, and h_nu(r) always lies
    in [r, r + nu/2], so g(z) <= g_nu(z) <= g(z) + nu/2.
    """
    if nu <= 0.0:
        raise ValueError("nu must be positive")
    r = row_distances(point_set.points, z)
    return float(point_set.weights @ np.where(r <= nu, r * r / (2.0 * nu) + nu / 2.0, r))


def displacement_bound(theta: float, eps: float, max_honest_dist: float) -> float:
    """How far an eps-approximate geometric median can move under corruption.

    For corrupted weight theta < 1/2, any point whose objective is within
    eps of optimal on the corrupted instance lies within
    2 (1 - theta) / (1 - 2 theta) * max_honest_dist + eps / (1 - 2 theta)
    of any reference point whose max distance to the honest points is
    max_honest_dist.
    """
    if not 0.0 <= theta < 0.5:
        raise ValueError("theta must lie in [0, 0.5)")
    if eps < 0.0 or max_honest_dist < 0.0:
        raise ValueError("eps and max_honest_dist must be nonnegative")
    return (2.0 * (1.0 - theta) * max_honest_dist + eps) / (1.0 - 2.0 * theta)


def hull_distance(z: np.ndarray, points: np.ndarray) -> float:
    """Euclidean distance from z to the convex hull of the given points.

    Solved as a bounded-variable least-squares problem with a penalty row
    that pins the coefficient sum to one; adequate for verification purposes.
    """
    z = np.asarray(z, dtype=float).ravel()
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    m = pts.shape[0]
    penalty = 1e5 * (1.0 + float(np.abs(pts).max()))
    a = np.vstack([pts.T, np.full((1, m), penalty)])
    b = np.concatenate([z, [penalty]])
    res = optimize.lsq_linear(
        a, b, bounds=(0.0, np.inf), method="bvls", tol=1e-14, max_iter=10 * m
    )
    lam = res.x
    s = lam.sum()
    if s <= 0.0:
        return float(np.linalg.norm(pts[0] - z))
    combo = (lam / s) @ pts
    return float(np.linalg.norm(combo - z))


def diameter(points: np.ndarray) -> float:
    """Largest pairwise distance between rows. O(m^2 d); point sets here are small."""
    diff = points[:, None, :] - points[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=2)).max())


def gm_objective(z: np.ndarray, point_set: WeightedPointSet) -> float:
    """Weighted sum of distances g(z) = sum_k a_k ||z - w_k||."""
    return float(point_set.weights @ row_distances(point_set.points, z))


def _weighted_coordinate_median(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Coordinate-wise weighted median; a robust starting point."""
    m, d = points.shape
    out = np.empty(d)
    for j in range(d):
        order = np.argsort(points[:, j], kind="stable")
        cum = np.cumsum(weights[order])
        idx = int(np.searchsorted(cum, 0.5 * cum[-1]))
        out[j] = points[order[min(idx, m - 1)], j]
    return out


def brute_force_gm(point_set: WeightedPointSet) -> np.ndarray:
    """Reference geometric median by a method unrelated to Weiszfeld averaging.

    Runs 400 projected subgradient steps with diminishing sizes from the
    coordinate-wise weighted median, then polishes with up to 12
    derivative-free simplex refinements of the exact (unsmoothed) objective
    until the objective improves by less than 1e-9 between refinements.
    Intended as an independent cross-check for small instances (m <= 50,
    d <= 10).

    Raises
    ------
    RuntimeError
        If the refinement loop fails to stabilize within its cap.
    """
    if point_set.m > 50 or point_set.d > 10:
        raise ValueError("brute_force_gm is limited to small instances (m <= 50, d <= 10)")
    pts = point_set.points
    wts = point_set.weights
    if point_set.m == 1:
        return pts[0].copy()

    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    z = _weighted_coordinate_median(pts, wts)
    dists = np.linalg.norm(pts - z, axis=1)
    scale = float(np.median(dists))
    if scale <= 0.0:
        scale = float(dists.max())
    if scale <= 0.0:
        return pts[0].copy()  # all points identical

    best_z = z.copy()
    best_g = gm_objective(z, point_set)
    for i in range(400):
        diff = z - pts
        dist = np.linalg.norm(diff, axis=1)
        nz = dist > 0.0
        sub = (wts[nz] / dist[nz]) @ diff[nz]
        z = np.clip(z - (scale / math.sqrt(i + 1.0)) * sub, lo, hi)
        g = gm_objective(z, point_set)
        if g < best_g:
            best_g = g
            best_z = z.copy()

    fun = lambda v: gm_objective(v, point_set)
    z_cur = best_z
    g_prev = best_g
    for _ in range(12):
        res = optimize.minimize(
            fun,
            z_cur,
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-13, "maxiter": 4000, "maxfev": 8000},
        )
        if res.fun <= g_prev:
            z_cur = np.asarray(res.x, dtype=float)
        if abs(g_prev - res.fun) < 1e-9:
            return z_cur
        g_prev = min(g_prev, float(res.fun))
    raise RuntimeError("brute_force_gm did not stabilize within the refinement cap")


@dataclass(frozen=True)
class SolvedInstance:
    point_set: WeightedPointSet
    result: GMResult
    z_ref: np.ndarray
    g_ref: float


@dataclass(frozen=True)
class InstancePool:
    instances: list[SolvedInstance]
    build_seconds: float


def random_instance(index: int) -> tuple[WeightedPointSet, np.ndarray]:
    """Instance ``index``: 3-20 points in 1-5 dimensions, interior optimum.

    Degenerate draws (collinear in d >= 2, or optimum within
    ``INTERIOR_MARGIN`` of a data point) are redrawn deterministically.
    """
    for attempt in range(40):
        rng = np.random.default_rng(np.random.SeedSequence([2024, index, attempt]))
        m = int(rng.integers(3, 21))
        d = int(rng.integers(1, 6))
        points = rng.standard_normal((m, d))
        if d >= 2 and np.linalg.matrix_rank(points - points.mean(axis=0)) < 2:
            continue
        weights = rng.uniform(0.5, 1.5, m)
        point_set = WeightedPointSet(points, weights)
        z_ref = brute_force_gm(point_set)
        if np.linalg.norm(point_set.points - z_ref, axis=1).min() <= INTERIOR_MARGIN:
            continue
        return point_set, z_ref
    raise RuntimeError(f"could not draw a usable instance for index {index}")


@pytest.fixture(scope="session")
def gm_pool() -> InstancePool:
    tic = time.perf_counter()
    instances = []
    for i in range(POOL_SIZE):
        point_set, z_ref = random_instance(i)
        result = smoothed_weiszfeld(
            point_set, nu=POOL_NU, budget=POOL_BUDGET, rel_tol=0.0
        )
        instances.append(
            SolvedInstance(
                point_set=point_set,
                result=result,
                z_ref=z_ref,
                g_ref=gm_objective(z_ref, point_set),
            )
        )
    return InstancePool(instances=instances, build_seconds=time.perf_counter() - tic)
