"""Weighted geometric median via a smoothed Weiszfeld iteration.

The geometric median of points w_1..w_m with positive weights a_1..a_m
minimizes g(z) = sum_k a_k ||z - w_k||. The solver below minimizes a
smoothed objective g_nu in which each distance is replaced by a quadratic
inside a ball of radius nu, so every update is a plain weighted average
with bounded reweights and no division by a vanishing distance can occur.

Each iteration computes the m distances once, a cache-sized block of rows
at a time, derives the objective values and the reweights from them, and
consumes exactly one weighted-average aggregation. The distances carry the
bits of ``sqrt(vecdot(points - z, points - z))`` over the C-ordered rows
that ``WeightedPointSet`` always holds, so the bits follow the values
alone. An iterate whose objective overflows raises ``ValueError``.
OpenBLAS splits a dot of over 10^4 entries across threads, so reruns are
byte-identical at a fixed BLAS thread count, and across thread counts only
while d <= 10^4. Every average goes through a
secure-average oracle (any object with an ``average(values, weights)``
method; a plain ``SecureAverageOracle`` by default), which is what makes
the solver usable on top of privacy-preserving summation: the coordinator
only ever sees weighted averages of the points, never an individual point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .secure_avg import SecureAverageOracle, _count, _real, _rows_and_weights

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
        One row per point, every coordinate finite; points in R^1 are an
        (m, 1) array. Any other shape, a 1-d array included, raises
        ``ValueError``. Stored as a C-ordered float array, a copy unless
        the caller's array already is one.
    weights : ndarray of shape (m,)
        Finite, strictly positive weights with a finite sum, divided by
        that sum into a new array; the caller's array is not modified. The
        points and weights are checked by the rule the secure-average
        oracle applies to its own input.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        pts, wts = _rows_and_weights(self.points, self.weights, "points")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
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
    # Only distances within nu are squared. A larger one, 1e308 or inf, is kept as it
    # is and never squared, so it cannot overflow; NaN fails r <= nu and is kept too.
    h = r.copy()
    near = r <= nu
    h[near] = np.square(r[near]) / (2.0 * nu) + nu / 2.0
    return h


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
        Smoothing radius, a finite real above 0. Distances below nu are
        treated quadratically, so reweights are capped at a_k / nu and the
        iteration is defined everywhere, including on top of a data point.
    budget : int
        Maximum number of averaging steps: an int or numpy integer of at
        least 1, checked before any oracle call and used as an int. Each
        step costs one oracle call.
    rel_tol : float
        Stop once the relative improvement of the smoothed objective
        between consecutive iterates falls to this level or below; a finite
        real of at least 0. Both ``nu`` and ``rel_tol`` may be ints or numpy
        reals, are checked before any oracle call and are used as floats.
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

    Raises
    ------
    ValueError
        For an input that breaks its rule, and with "distances overflow:
        the objective is not finite" as soon as an iterate's objective g is
        inf or NaN, before the next oracle call. A squared distance
        overflows above about 1.3e154, so that is where it happens.

    Notes
    -----
    Each iterate computes the m distances once and derives g, g_nu, the
    reweights beta_k = a_k / max(nu, ||z - w_k||) and their sum L from
    them; the next iterate is the beta-weighted average of the points.
    When no distance lies within nu, h_nu(r) = r and max(nu, r) = r, so
    g_nu is g and beta_k = a_k / ||z - w_k||, taken from the same products
    with the same bits; only an iterate with some distance within nu, such
    as a start on a data point or an iterate that has reached coincident
    points holding most of the weight, computes h_nu and the clamp.
    The distances are computed a block of rows at a time: at most 256 KB, or
    8 rows if a row is larger. Each block of points minus a block filled
    with z goes to a scratch block, whose ``np.vecdot`` with itself writes
    one BLAS dot per row into a preallocated (m,) array that one ``np.sqrt``
    then finishes. Both blocks are allocated once per call. The last block
    is shifted back to end at row m, so every block of points has the shape
    of those two, and the rows it shares with the block before are computed
    again with the same bits. The distances thus carry the bits of
    ``sqrt(vecdot(points - z, points - z))``; no (m, d) array is allocated.
    Each step minimizes the quadratic surrogate at the current iterate, so
    the smoothed objective never increases; iterates from step 1 on stay in
    the convex hull of the points. With a single point the exact answer is
    returned immediately with zero iterations.
    """
    budget = _count(budget, "budget must be an integer >= 1")
    rel_tol = _real(rel_tol, "rel_tol must be finite and nonnegative")
    nu = _real(nu, "nu must be finite and positive", least=math.ulp(0.0))
    if z0 is not None:
        z0 = np.asarray(z0, dtype=float).ravel()
        if z0.shape[0] != point_set.d:
            raise ValueError("z0 dimension does not match the points")
        if not np.isfinite(z0).all():
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
    block = np.empty((rows, d))
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
        g = float(wts @ r)
        if not math.isfinite(g):
            raise ValueError("distances overflow: the objective is not finite")
        if (r <= nu).any():
            g_nu = float(wts @ _smoothed_distances(r, nu))
            step_beta = wts / np.maximum(r, nu)
        else:
            # h_nu(r) = max(r, nu) = r for every distance, NaN and inf included.
            g_nu, step_beta = g, wts / r
        trace.append(IterationRecord(t, z.copy(), g, g_nu, float(step_beta.sum())))
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
