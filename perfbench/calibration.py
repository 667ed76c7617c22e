"""Scaling of measured time to a reference machine speed.

The benchmark shares its machine. For tens of seconds at a time, other
tenants slow the benchmark by up to 2x, which moved the median op time of
20 s runs by 30% between runs. A fixed calibration kernel with the same
bottleneck as the op slows by the same factor, so op time x (reference
kernel time / kernel time around the op) held within a few percent. The
kernels use only numpy and Python, never fedgm, so a change to the program
cannot move them.

One kernel per kind of op, because contention slows interpreter-bound,
RNG-bound and memory-bound code by different factors:

- ``loop``: single-row numpy products in a Python loop, the pattern of
  tail-averaged single-sample SGD;
- ``sgd``: a minibatch drawn with ``rng.choice(..., replace=False)`` and a
  gradient step on it, the pattern of ``local_update_sgd``;
- ``masks``: one Gaussian draw and two row updates per pair of 64 rows,
  the masked oracle's pairwise loop;
- ``stream``: two Weiszfeld-like steps on 10^4 points in R^100 (8 MB):
  distances, reweights and a weighted average, with the same temporary
  arrays a solver step makes. Variants that reused preallocated buffers
  tracked the ops' slowdown far worse: 17-20% spread between runs
  against 2-4%.

``REFERENCE_S`` holds each kernel's time on an uncontended core of a
2-vCPU virtual machine (Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = {"loop": 0.0075, "sgd": 0.0076, "masks": 0.0065, "stream": 0.0090}

_RNG = np.random.default_rng(0)
_ROWS = _RNG.standard_normal((64, 40))
_LABELS = _RNG.standard_normal(64)
_STREAM: list = []  # points and weights, made on first use


def _loop() -> None:
    w = np.zeros(_ROWS.shape[1])
    for i in range(2000):
        j = i % 64
        r = _ROWS[j : j + 1] @ w - _LABELS[j : j + 1]
        w -= 1e-3 * (_ROWS[j : j + 1].T @ r)


def _stream() -> None:
    if not _STREAM:
        _STREAM.append(np.random.default_rng(1).standard_normal((10_000, 100)))
        _STREAM.append(np.random.default_rng(2).uniform(0.5, 1.5, 10_000))
    points, weights = _STREAM
    z = points[0]
    for _ in range(2):
        dist = np.linalg.norm(points - z, axis=1)
        beta = weights / np.maximum(dist, 1e-6)
        z = (beta @ points) / beta.sum()


def _sgd() -> None:
    rng = np.random.default_rng(0)
    w = np.zeros(_ROWS.shape[1])
    for _ in range(600):
        idx = rng.choice(64, size=10, replace=False)
        x = _ROWS[idx]
        w -= 1e-3 * (x.T @ (x @ w - _LABELS[idx])) / 10


def _masks() -> None:
    rng = np.random.default_rng(0)
    contrib = np.zeros((64, 101))
    for j in range(64):
        for k in range(j + 1, 64):
            mask = rng.standard_normal(101)
            contrib[j] += mask
            contrib[k] -= mask


KERNELS = {"loop": _loop, "sgd": _sgd, "masks": _masks, "stream": _stream}


def kernel_seconds(kind: str) -> float:
    run = KERNELS[kind]
    tic = time.perf_counter()
    run()
    return time.perf_counter() - tic


class ScaledClock:
    """Speed factors for consecutive spans of work, from kernels between them."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        kernel_seconds(kind)  # first-use allocation stays out of the timings
        self._last = kernel_seconds(kind)

    def factor(self) -> float:
        """Reference kernel time over the mean kernel time just before and
        after the work done since the previous call."""
        kernel = kernel_seconds(self.kind)
        factor = 2.0 * REFERENCE_S[self.kind] / (self._last + kernel)
        self._last = kernel
        return factor
