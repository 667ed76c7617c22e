"""Shared fixtures and reference helpers for the geometric-median tests.

``eta_update``, ``lipschitz_constant``, ``hull_distance`` and
``diameter`` are independent reference implementations that the solver's
trace and iterates are checked against; the package itself does not need
them.

The pool pairs every instance with both solver outputs (iterative and
brute force) so equivalence, convergence-speed and invariant checks can
share one build. Instances keep their optimum well separated from the
data points; an optimum sitting on a data point is handled by the solver
but approached only sublinearly, which is a different regime from the
one the equivalence checks target.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

from fedgm.geomed import (
    GMResult,
    WeightedPointSet,
    brute_force_gm,
    gm_objective,
    smoothed_weiszfeld,
)


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


POOL_SIZE = 100
POOL_NU = 1e-6
POOL_BUDGET = 50
INTERIOR_MARGIN = 0.1


def eta_update(z: np.ndarray, point_set: WeightedPointSet, nu: float) -> np.ndarray:
    """Per-point auxiliary distances eta_k = max(nu, ||z - w_k||)."""
    if nu <= 0.0:
        raise ValueError("nu must be positive")
    z = np.asarray(z, dtype=float).ravel()
    dists = np.linalg.norm(point_set.points - z, axis=1)
    return np.maximum(dists, nu)


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
