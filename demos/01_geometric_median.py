"""Solving for a weighted geometric median and watching it ignore an outlier.

The geometric median minimizes the weighted sum of distances to a point
cloud. Unlike the mean it barely moves when a single far point is added,
as long as that point holds less than half the total weight.
"""

import numpy as np

from fedgm import WeightedPointSet, smoothed_weiszfeld

rng = np.random.default_rng(0)

print("=== a small 2-d instance ===")
points = rng.standard_normal((12, 2))
weights = rng.uniform(0.5, 1.5, 12)
cloud = WeightedPointSet(points, weights)

nu = 1e-6
result = smoothed_weiszfeld(cloud, nu=nu, budget=50, rel_tol=1e-9)
print(f"solution z = {np.round(result.z, 6)}")
print(f"objective g(z) = {result.g_value:.9f} after {result.iterations} iterations")
print(f"stopped by: {result.converged_by}, oracle calls: {result.oracle_calls}")

print("\nper-iteration objective (note the monotone decrease):")
for rec in result.trace[:6]:
    print(f"  t={rec.t:2d}  g={rec.g:.9f}  g_nu={rec.g_nu:.9f}")

# g <= g_nu <= g + nu/2 at every point, so this gap is at most nu/2.
smoothing_gap = result.trace[-1].g_nu - result.g_value
print(f"\nsmoothing gap g_nu(z) - g(z) = {smoothing_gap:.2e} (at most nu/2 = {nu / 2:.0e})")

print("\n=== robustness: one far outlier, 20% of the weight ===")
spiked = WeightedPointSet(
    np.vstack([points, [1e5, 1e5]]),
    np.concatenate([weights, [weights.sum() / 4]]),
)
mean = (spiked.weights[:, None] * spiked.points).sum(axis=0)
median = smoothed_weiszfeld(spiked, budget=100, rel_tol=0.0).z
print(f"weighted mean lands at   {np.round(mean, 2)}")
print(f"geometric median stays at {np.round(median, 4)}")
print(f"distance of the median from the clean solution: "
      f"{np.linalg.norm(median - result.z):.4f}")
