"""Weighted geometric median via a smoothed Weiszfeld iteration.

The geometric median of points w_1..w_m with positive weights a_1..a_m
minimizes g(z) = sum_k a_k ||z - w_k||. The solver below minimizes a
smoothed objective g_nu in which each distance is replaced by a quadratic
inside a ball of radius nu, so every update is a plain weighted average
with bounded reweights and no division by a vanishing distance can occur.

Each iteration computes the m distances once, a cache-sized block of rows
at a time, derives the objective values and the reweights from them, and
consumes exactly one weighted-average aggregation. The distances carry the
bits of ``sqrt(vecdot(points - z, points - z))``, whose row sums follow the
points' memory layout. OpenBLAS splits a dot of over 10^4 entries across
threads, so reruns are byte-identical at a fixed BLAS thread count, and
across thread counts only while d <= 10^4. Every average goes through a
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

# Bytes of one block of the distance pass's buffers, small enough to stay in
# cache. 7-step solve medians, 128/256/512 KB: 8.8/8.6/9.1 ms at m=10^4,
# d=100; 12.2/11.9/12.7 ms at m=d=1000 (1 BLAS thread, Xeon, SkylakeX core).
_BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class WeightedPointSet:
    """Points in R^d with positive weights divided by their sum.

    Parameters
    ----------
    points : ndarray of shape (m, d)
        One row per point; points in R^1 are an (m, 1) array. Any other
        shape, a 1-d array included, raises ``ValueError``.
    weights : ndarray of shape (m,)
        Strictly positive weights, divided by their sum into a new array;
        the caller's array is not modified.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
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
    ``"relative_improvement"`` or ``"budget"``. ``g_value`` is g at ``z``;
    the smoothed value there is ``trace[-1].g_nu``.
    """

    z: np.ndarray
    g_value: float
    iterations: int
    beta: np.ndarray
    converged_by: str
    oracle_calls: int
    trace: list[IterationRecord] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "z": [float(v) for v in self.z],
            "g": self.g_value,
            "g_nu": self.trace[-1].g_nu,
            "iterations": self.iterations,
            "beta": [float(b) for b in self.beta],
            "converged_by": self.converged_by,
            "oracle_calls": self.oracle_calls,
            "trace": [
                {"t": r.t, "g": r.g, "g_nu": r.g_nu, "L": r.lipschitz}
                for r in self.trace
            ],
        }


def _smoothed_distances(r: np.ndarray, nu: float) -> np.ndarray:
    """h_nu(r) = r^2/(2 nu) + nu/2 when r <= nu, else r; g_nu(z) = sum_k a_k h_nu(||z - w_k||)."""
    # Squaring min(r, nu), not r, keeps a huge discarded distance from overflowing.
    near = np.minimum(r, nu)
    return np.where(r <= nu, near * near / (2.0 * nu) + nu / 2.0, r)


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
        Starting point; any finite point will do. With two or more points
        at least one step is always taken, so every iterate from step 1
        on, the returned z included, is a weighted average of the points
        and lies in their convex hull. Defaults to the weighted mean,
        which costs one extra oracle call.
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
    The distances are computed a block of rows at a time: at most 256 KB, or
    8 rows if a row is larger. Each block of points minus a block filled
    with z goes to a scratch block, whose ``np.vecdot`` with itself writes
    one BLAS dot per row into a preallocated (m,) array that one ``np.sqrt``
    then finishes. Both blocks are allocated once per call in the memory
    layout of the points. The last block is shifted back to end at row m, so
    every block has the same shape and no row is summed alone (a lone
    F-ordered row would be summed in another order). The distances thus
    carry the bits of ``sqrt(vecdot(points - z, points - z))``, whose row
    sums follow the points' memory layout; no (m, d) array is allocated.
    Each step minimizes the quadratic surrogate at the current iterate, so
    the smoothed objective never increases; iterates from step 1 on stay in
    the convex hull of the points. With a single point the exact answer is
    returned immediately with zero iterations.
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
    converged_by = "budget"
    if point_set.m == 1:
        # A single point is its own median: no step is taken.
        z, budget, converged_by = pts[0].copy(), 0, "relative_improvement"
    elif z0 is None:
        z = np.asarray(oracle.average(pts, wts), dtype=float)
    else:
        z = z0.copy()

    m, d = pts.shape
    rows = min(m, max(8, _BLOCK_BYTES // (8 * d)))
    block = np.empty_like(pts[:rows])  # same memory layout as pts, so rows sum in its order
    z_rows = np.empty_like(block)  # z in every row: the subtraction needs no broadcast
    r = np.empty(m)
    trace: list[IterationRecord] = []
    for t in range(budget + 1):
        z_rows[...] = z
        for lo in range(0, m, rows):
            lo = min(lo, m - rows)
            np.subtract(pts[lo : lo + rows], z_rows, out=block)
            np.vecdot(block, block, out=r[lo : lo + rows])
        np.sqrt(r, out=r)
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

    final = trace[-1]
    return GMResult(
        z=final.z.copy(),
        g_value=final.g,
        iterations=final.t,
        beta=beta,
        converged_by=converged_by,
        # One call per step, plus one for a mean start with two or more points.
        oracle_calls=final.t + (z0 is None and point_set.m > 1),
        trace=trace,
    )
