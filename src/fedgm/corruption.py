"""Device corruption models for federated simulations.

``realize`` marks the corrupted devices in a (K,) boolean mask, sampling
K equal devices uniformly without replacement until their weight, 1/K
each, strictly exceeds the target fraction rho. Three attack families
act on the rows that the mask selects: static data poisoning (label
negation, the same in every round, which for least squares is the
paper's feature negation), adaptive data poisoning (relabel against the
current broadcast model), and an omniscient update attack that replaces
corrupted updates so the weighted round mean becomes the exact negation
of what the honest mean would have been. Both data attacks return
labels, so no attack writes features. Evaluation data is never touched
by any of these; every transform returns fresh arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .secure_avg import _count, _real, _store

CORRUPTION_KINDS = ("none", "static_data", "adaptive_data", "omniscient")


@dataclass(frozen=True)
class CorruptionSpec:
    """What fraction of data weight is corrupted, and how.

    ``rho`` is a real in [0, 1) (an int or numpy real too), stored as a
    float. Kind "none" has rho = 0 and every other kind rho > 0: rho = 0
    turns an attack kind into "none", and kind "none" rejects rho > 0.
    ``seed`` drives the random choice of corrupted devices; when None the
    runner substitutes its own master seed. A seed that is set is an int
    or numpy integer of at least 0, stored as an int, and is checked here
    under every kind. ``realize`` marks the corrupted devices of a
    concrete population.
    """

    kind: str = "none"
    rho: float = 0.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError(f"kind must be one of {CORRUPTION_KINDS}")
        _store(self, _real, "rho must lie in [0, 1)", "rho", most=math.nextafter(1.0, 0.0))
        if self.seed is not None:
            _store(self, _count, "seed must be a nonnegative integer", "seed", least=0)
        if self.kind == "none" and self.rho > 0.0:
            raise ValueError("rho > 0 needs an attack kind")
        if self.kind != "none" and self.rho == 0.0:
            object.__setattr__(self, "kind", "none")


def realize(spec: CorruptionSpec, devices: int, fallback_seed: int = 0) -> np.ndarray:
    """The (K,) boolean mask of corrupted devices in a population of K = ``devices``.

    Every device weighs 1/K. Devices are drawn in a uniformly random order
    until the float sum of their weights strictly exceeds ``spec.rho``, or
    the population runs out; kind "none" marks nobody. ``devices`` is an
    int or numpy integer of at least 1, used as an int. ``fallback_seed``
    stands in for ``spec.seed`` when that is None. The seed used is an int
    or numpy integer of at least 0, checked under every kind.
    """
    devices = _count(devices, "devices must be a positive integer")
    seed = spec.seed if spec.seed is not None else fallback_seed
    seed = _count(seed, "seed must be a nonnegative integer", least=0)
    mask = np.zeros(devices, dtype=bool)
    if spec.kind != "none":
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0DE]))
        order = rng.permutation(devices)
        # The running weight first exceeds rho at position `count - 1`. Sums
        # of 1/K are inexact, so floor(rho * K) + 1 can give another count.
        running = np.cumsum(np.full(devices, 1.0 / devices))
        count = np.searchsorted(running, spec.rho, side="right") + 1
        mask[order[:count]] = True
    return mask


def poison_static(labels: np.ndarray) -> np.ndarray:
    """Negate every label; features are left alone. Involutive.

    For least squares this is the paper's feature negation: a sample
    (x, y) has the loss 1/2 (y - <-x, w>)^2 = 1/2 (-y - <x, w>)^2, so
    negating the features or the labels gives the same device loss, and
    negation is exact in floating point.
    """
    return -np.asarray(labels, dtype=float)


def poison_adaptive(features: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Labels <x, -w> for every feature vector x, given the broadcast model w.

    The corrupted device then faithfully fits data whose exact local
    optimum is -w, dragging the aggregate away from wherever the server
    currently is. Deterministic in (features, w).
    """
    return np.asarray(features, dtype=float) @ (-np.asarray(w, dtype=float))


def omniscient_updates(
    updates: np.ndarray, weights: np.ndarray, corrupted_mask: np.ndarray
) -> np.ndarray:
    """Replace corrupted rows so the weighted mean flips sign exactly.

    Every corrupted device returns the same vector
    psi = -(2 * sum_honest a_k u_k + sum_corrupt a_k u_k) / sum_corrupt a_k,
    which makes the weighted mean of the returned updates equal the
    negation of the weighted mean of all the round's faithful updates, the
    corrupted devices' own included: -(sum_k a_k u_k) / sum_k a_k over every
    row. With no corrupted rows this is a no-op and a copy of the input is
    returned.
    """
    updates = np.asarray(updates, dtype=float)
    weights = np.asarray(weights, dtype=float).ravel()
    mask = np.asarray(corrupted_mask, dtype=bool).ravel()
    if updates.shape[0] != weights.shape[0] or updates.shape[0] != mask.shape[0]:
        raise ValueError("updates, weights and corrupted_mask must agree in length")
    out = updates.copy()
    corrupted_weight = float(weights[mask].sum())
    if corrupted_weight <= 0.0:
        return out
    honest = ~mask
    honest_sum = weights[honest] @ updates[honest]
    corrupt_sum = weights[mask] @ updates[mask]
    psi = -(2.0 * honest_sum + corrupt_sum) / corrupted_weight
    out[mask] = psi
    return out
