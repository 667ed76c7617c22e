"""Weighted geometric median via a smoothed Weiszfeld iteration.

The geometric median of points w_1..w_m with positive weights a_1..a_m
minimizes g(z) = sum_k a_k ||z - w_k||. The solver below minimizes a
smoothed objective g_nu in which each distance is replaced by a quadratic
inside a ball of radius nu, so every update is a plain weighted average
with bounded reweights and no division by a vanishing distance can occur.

Each iteration computes the m distances once, derives the objective
values and the reweights from them, and consumes exactly one
weighted-average aggregation. The distances are computed in one (m, d)
scratch buffer allocated per solve, with the same bits as
``np.linalg.norm(points - z, axis=1)``. Every average goes through a
secure-average oracle (any object with an ``average(values, weights)``
method; a plain ``SecureAverageOracle`` by default), which is what makes
the solver usable on top of privacy-preserving summation: the coordinator
only ever sees weighted averages of the points, never an individual point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .secure_avg import SecureAverageOracle


@dataclass(frozen=True)
class WeightedPointSet:
    """Points in R^d with positive weights divided by their sum.

    Parameters
    ----------
    points : ndarray of shape (m, d)
        One row per point. A 1-d array is treated as m points in R^1.
    weights : ndarray of shape (m,)
        Strictly positive weights, divided by their sum into a new array;
        the caller's array is not modified.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("points must be a nonempty (m, d) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        wts = np.asarray(self.weights, dtype=float).ravel()
        if wts.shape[0] != pts.shape[0]:
            raise ValueError("weights length must match number of points")
        if not np.all(np.isfinite(wts)) or np.any(wts <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        with np.errstate(over="ignore"):
            total = wts.sum()
        if not math.isfinite(total):
            raise ValueError("weights must have a finite sum")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts / total)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass
class IterationRecord:
    """One solver iterate: objective values and the local averaging weight sum."""

    t: int
    z: np.ndarray
    g: float
    g_nu: float
    lipschitz: float


@dataclass
class GMResult:
    """Outcome of ``smoothed_weiszfeld``.

    ``beta`` holds the final per-point reweights, so that ``z`` equals the
    beta-weighted average of the points at termination (exactly, for any
    run that took at least one step). ``converged_by`` is either
    ``"relative_improvement"`` or ``"budget"``.
    """

    z: np.ndarray
    g_value: float
    g_nu_value: float
    iterations: int
    beta: np.ndarray
    converged_by: str
    oracle_calls: int
    trace: list[IterationRecord] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "z": [float(v) for v in self.z],
            "g": self.g_value,
            "g_nu": self.g_nu_value,
            "iterations": self.iterations,
            "beta": [float(b) for b in self.beta],
            "converged_by": self.converged_by,
            "oracle_calls": self.oracle_calls,
            "trace": [
                {"t": r.t, "g": r.g, "g_nu": r.g_nu, "L": r.lipschitz}
                for r in self.trace
            ],
        }


def gm_objective(z: np.ndarray, point_set: WeightedPointSet) -> float:
    """Weighted sum of distances g(z) = sum_k a_k ||z - w_k||."""
    z = np.asarray(z, dtype=float).ravel()
    dists = np.linalg.norm(point_set.points - z, axis=1)
    return float(point_set.weights @ dists)


def _smoothed_distances(r: np.ndarray, nu: float) -> np.ndarray:
    """Apply the quadratic cap of g_nu inside radius nu to distances r."""
    return np.where(r <= nu, r * r / (2.0 * nu) + nu / 2.0, r)


def smoothed_objective(z: np.ndarray, point_set: WeightedPointSet, nu: float) -> float:
    """g_nu(z) = sum_k a_k h_nu(||z - w_k||).

    h_nu(r) = r^2/(2 nu) + nu/2 when r <= nu, else r. The two branches
    touch with matching value and slope at r = nu, and h_nu(r) always lies
    in [r, r + nu/2], so g(z) <= g_nu(z) <= g(z) + nu/2.
    """
    if nu <= 0.0:
        raise ValueError("nu must be positive")
    z = np.asarray(z, dtype=float).ravel()
    r = np.linalg.norm(point_set.points - z, axis=1)
    return float(point_set.weights @ _smoothed_distances(r, nu))


def smoothed_weiszfeld(
    point_set: WeightedPointSet,
    nu: float = 1e-6,
    budget: int = 50,
    rel_tol: float = 1e-6,
    z0: np.ndarray | None = None,
    oracle=None,
) -> GMResult:
    """Minimize the smoothed geometric-median objective by reweighted averaging.

    Parameters
    ----------
    point_set : WeightedPointSet
        The weighted points.
    nu : float
        Smoothing radius. Distances below nu are treated quadratically, so
        reweights are capped at a_k / nu and the iteration is defined
        everywhere, including on top of a data point.
    budget : int
        Maximum number of averaging steps (>= 1). Each step costs one
        oracle call.
    rel_tol : float
        Stop once the relative improvement of the smoothed objective
        between consecutive iterates falls to this level or below.
    z0 : ndarray, optional
        Starting point, finite and expected inside the convex hull of the
        points.
        Defaults to the weighted mean, which costs one extra oracle call.
    oracle : object, optional
        Anything with ``average(values, weights)``; every weighted average
        is routed through it so calls can be counted or masked. Defaults to
        a fresh ``SecureAverageOracle("plain")``.

    Returns
    -------
    GMResult
        Final point, objective values, per-iterate trace, final reweights
        and the number of oracle calls consumed.

    Notes
    -----
    Each iterate computes the m distances once and derives g, g_nu, the
    reweights beta_k = a_k / max(nu, ||z - w_k||) and their sum L from
    them; the next iterate is the beta-weighted average of the points.
    The distances are squared and summed in place in one (m, d) scratch
    buffer, allocated once per call in the memory layout of the points,
    so they carry the same bits as ``np.linalg.norm`` without allocating
    a temporary per iterate.
    Each step minimizes the quadratic surrogate at the current iterate, so
    the smoothed objective never increases; iterates stay in the convex
    hull of the points. With a single point the exact answer is returned
    immediately with zero iterations.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if not 0.0 <= rel_tol < math.inf:
        raise ValueError("rel_tol must be finite and nonnegative")
    if not 0.0 < nu < math.inf:
        raise ValueError("nu must be finite and positive")
    if z0 is not None:
        z0 = np.asarray(z0, dtype=float).ravel()
        if z0.shape[0] != point_set.d:
            raise ValueError("z0 dimension does not match the points")
        if not np.all(np.isfinite(z0)):
            raise ValueError("z0 must be finite")
    if oracle is None:
        oracle = SecureAverageOracle("plain")

    pts = point_set.points
    wts = point_set.weights
    beta = wts.copy()
    calls = 0
    converged_by = "budget"
    if point_set.m == 1:
        # A single point is its own median: no step is taken.
        z, budget, converged_by = pts[0].copy(), 0, "relative_improvement"
    elif z0 is None:
        z = np.asarray(oracle.average(pts, wts), dtype=float)
        calls += 1
    else:
        z = z0.copy()

    diff = np.empty_like(pts)  # same memory layout as pts, so r has norm's bits
    trace: list[IterationRecord] = []
    for t in range(budget + 1):
        np.subtract(pts, z, out=diff)
        np.multiply(diff, diff, out=diff)
        r = np.sqrt(diff.sum(axis=1))
        g_nu = float(wts @ _smoothed_distances(r, nu))
        step_beta = wts / np.maximum(r, nu)
        trace.append(
            IterationRecord(t, z.copy(), float(wts @ r), g_nu, float(step_beta.sum()))
        )
        # g_nu >= nu/2 always, so the ratio below is well defined
        if t > 0 and abs(trace[-2].g_nu - g_nu) / g_nu <= rel_tol:
            converged_by = "relative_improvement"
            break
        if t == budget:
            break
        beta = step_beta
        z = np.asarray(oracle.average(pts, beta), dtype=float)
        calls += 1

    final = trace[-1]
    return GMResult(
        z=final.z.copy(),
        g_value=final.g,
        g_nu_value=final.g_nu,
        iterations=final.t,
        beta=beta,
        converged_by=converged_by,
        oracle_calls=calls,
        trace=trace,
    )


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

    from scipy import optimize  # imported here: `import fedgm` stays scipy-free
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
