"""Device corruption models for federated simulations.

``realize`` marks the corrupted devices in a (K,) boolean mask, sampling
K equal devices uniformly without replacement until their weight, 1/K
each, strictly exceeds the target fraction rho. Three attack families
act on the rows that the mask selects: static data poisoning (feature
negation, the same in every round), adaptive data poisoning (relabel
against the current broadcast model), and an omniscient update attack
that replaces corrupted updates so the weighted round mean becomes the
exact negation of what the honest mean would have been. Evaluation data is never touched by
any of these; every transform returns fresh arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CORRUPTION_KINDS = ("none", "static_data", "adaptive_data", "omniscient")


@dataclass(frozen=True)
class CorruptionSpec:
    """What fraction of data weight is corrupted, and how.

    Kind "none" has rho = 0 and every other kind rho > 0: rho = 0 turns an
    attack kind into "none", and kind "none" rejects rho > 0. ``seed``
    drives the random choice of corrupted devices; when None the runner
    substitutes its own master seed. ``realize`` marks the corrupted
    devices of a concrete population.
    """

    kind: str = "none"
    rho: float = 0.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError(f"kind must be one of {CORRUPTION_KINDS}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if self.kind == "none" and self.rho > 0.0:
            raise ValueError("rho > 0 needs an attack kind")
        if self.kind != "none" and self.rho == 0.0:
            object.__setattr__(self, "kind", "none")


def realize(spec: CorruptionSpec, devices: int, fallback_seed: int = 0) -> np.ndarray:
    """The (K,) boolean mask of corrupted devices in a population of K = ``devices``.

    Every device weighs 1/K. Devices are drawn in a uniformly random order
    until the float sum of their weights strictly exceeds ``spec.rho``, or
    the population runs out; kind "none" marks nobody. ``fallback_seed``
    stands in for ``spec.seed`` when that is None.
    """
    mask = np.zeros(devices, dtype=bool)
    if spec.kind != "none":
        seed = spec.seed if spec.seed is not None else fallback_seed
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xC0DE]))
        order = rng.permutation(devices)
        # The running weight first exceeds rho at position `count - 1`. Sums
        # of 1/K are inexact, so floor(rho * K) + 1 can give another count.
        running = np.cumsum(np.full(devices, 1.0 / devices))
        count = np.searchsorted(running, spec.rho, side="right") + 1
        mask[order[:count]] = True
    return mask


def poison_static(features: np.ndarray) -> np.ndarray:
    """Negate every feature vector; labels are left alone. Involutive."""
    return -np.asarray(features, dtype=float)


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
    negation of the weighted mean of the honest updates. With no corrupted
    rows this is a no-op and a copy of the input is returned.
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
    honest_sum = weights[~mask] @ updates[~mask]
    corrupt_sum = weights[mask] @ updates[mask]
    psi = -(2.0 * honest_sum + corrupt_sum) / corrupted_weight
    out[mask] = psi
    return out
