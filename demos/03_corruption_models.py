"""Three device corruption models and how the corrupted set is drawn.

Every device holds the same share of the data. Corrupted devices are
sampled uniformly until their share strictly exceeds the target fraction
rho, and marked in one boolean mask per run.
Static poisoning negates the corrupted devices' labels once per run,
which for least squares fits exactly as negated features do; each round, adaptive poisoning relabels the selected corrupted devices
against whatever model the server broadcasts; the omniscient attack skips
the data entirely and substitutes updates so the round's weighted mean is
exactly the negation of its honest value.
"""

import numpy as np

from fedgm import (
    CorruptionSpec,
    omniscient_updates,
    poison_adaptive,
    poison_static,
    realize,
)
from fedgm.tasks import exact_optimum

print("=== choosing who is corrupted ===")
spec = CorruptionSpec(kind="static_data", rho=0.25, seed=3)
corrupted = realize(spec, 20)
print(f"rho = {spec.rho}: corrupted devices {np.flatnonzero(corrupted)}")
print(f"their combined data weight: {corrupted.sum() / 20:.2f} (strictly above rho)")

print("\n=== static data poisoning ===")
rng = np.random.default_rng(1)
x = rng.standard_normal((5, 3))
y = rng.standard_normal(5)
py = poison_static(y)
print("labels are negated, features kept:")
print(f"  y = {np.round(y, 3)} -> {np.round(py, 3)}")
# 1/2 (y - <-x, w>)^2 = 1/2 (-y - <x, w>)^2, and negation is exact in floating point.
w_features, w_labels = exact_optimum(-x, y), exact_optimum(x, py)
print(f"negated features fit w = {np.round(w_features, 6)}")
print(f"negated labels fit   w = {np.round(w_labels, 6)}")
print(f"the same bits: {w_features.tobytes() == w_labels.tobytes()}")

print("\n=== adaptive data poisoning (features kept, labels replaced) ===")
w_broadcast = np.array([1.0, -0.5, 2.0])
w_fit = exact_optimum(x, poison_adaptive(x, w_broadcast))
print(f"server broadcasts   w = {w_broadcast}")
print(f"poisoned shard fits w = {np.round(w_fit, 6)} (the exact negation)")

print("\n=== omniscient update substitution ===")
updates = rng.standard_normal((8, 3))
weights = rng.uniform(0.5, 1.5, 8)
mask = np.zeros(8, dtype=bool)
mask[[1, 4]] = True
honest_mean = (weights @ updates) / weights.sum()
attacked = omniscient_updates(updates, weights, mask)
post_mean = (weights @ attacked) / weights.sum()
print(f"honest weighted mean: {np.round(honest_mean, 6)}")
print(f"after substitution:   {np.round(post_mean, 6)}")
print(f"flip error: {np.abs(post_mean + honest_mean).max():.2e}")
print("the two corrupted rows both send the same crafted vector:")
print(f"  {np.round(attacked[1], 4)}")
