"""The secure-average oracle: masked aggregation and call accounting.

Every aggregation in this package flows through one primitive, a weighted
average of device vectors, passed as an (m, d) array with one row per
device; a single device is a (1, d) array. In masked mode each device
encodes its contribution as 64-bit fixed-point integers, and the server
sums the encodings. In the protocol being modeled, each device also adds a
mask, uniform mod 2^64 on its own, and the masks of all devices sum to
zero mod 2^64: m - 1 rows are uniform and the last device takes minus
their sum. That is the same law as the pairwise masks of secure
aggregation, where each pair of devices shares a mask added on one side
and subtracted on the other. Individual contributions are hidden, while
the masks cancel exactly in the wrapping sum. So the oracle draws no masks:
its result is the unmasked fixed-point sum bit for bit, and differs from
plain mode only by the quantization. This demo draws one set of masks to
show what a device would send. Counters record how many averages were
taken and a modeled communication cost of m*d + m^2 units per call, the
traffic of the pairwise protocol.
"""

import numpy as np

from fedgm import SecureAverageOracle

rng = np.random.default_rng(7)
m, d = 6, 4
values = rng.standard_normal((m, d))
weights = rng.uniform(0.5, 2.0, m)

plain = SecureAverageOracle("plain")
masked = SecureAverageOracle("masked")

out_plain = plain.average(values, weights)
out_masked = masked.average(values, weights)

print("plain weighted average: ", np.round(out_plain, 8))
print("masked weighted average:", np.round(out_masked, 8))
print(f"max deviation: {np.abs(out_plain - out_masked).max():.2e}")

print("\nwhat one device would have revealed in the clear:")
print("  contribution of device 0:", np.round(values[0], 4))

# In masked mode only mask-perturbed vectors leave a device. Encode
# [beta v, beta] per column as the oracle does, add zero-sum masks mod 2^64,
# and show device 0's words before and after.
contrib = np.column_stack([values * weights[:, None], weights])
shift = 62 - np.frexp(np.abs(contrib).max(axis=0))[1] - (m - 1).bit_length()
encoded = np.rint(np.ldexp(contrib, shift)).astype(np.int64).view(np.uint64)
masks = np.empty_like(encoded)
masks[:-1] = np.random.default_rng(42).bit_generator.random_raw((m - 1, d + 1))
masks[-1] = -masks[:-1].sum(axis=0)
sent = encoded + masks
print("  its encoding mod 2^64:     ", encoded[0, :3], "...")
print("  what it sends when masked: ", sent[0, :3], "...")
total = np.ldexp(sent.sum(axis=0).view(np.int64).astype(float), -shift)
same = np.array_equal(total[:d] / total[d], out_masked)
print(f"  the masked words sum to the masked average's bits: {same}")

print("\ncall accounting after one average of 6 vectors in R^4:")
print(f"  call_count    = {plain.call_count}")
print(f"  bytes_modeled = {plain.bytes_modeled}  (m*d + m^2 = {m * d + m * m})")

plain.average(values[:3], weights[:3])
print("\nafter a second, smaller average:")
print(f"  call_count    = {plain.call_count}")
print(f"  bytes_modeled = {plain.bytes_modeled}")

print("\nedge cases pinned by the tests:")
single = SecureAverageOracle("plain").average(np.array([[2.5, -1.0]]), np.array([3.0]))
print(f"  a single (1, d) contribution is returned unchanged: {single}")
pair = SecureAverageOracle("plain").average(
    np.array([[1.0, 2.0], [-1.0, -2.0]]), np.array([5.0, 5.0])
)
print(f"  a symmetric pair cancels to zero: {pair}")
