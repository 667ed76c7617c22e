"""Simulated secure weighted-average oracle with call accounting.

The oracle computes sum_k beta_k v_k / sum_k beta_k over device
contributions. In "masked" mode each device encodes its stacked
contribution [beta_k v_k, beta_k] as 64-bit fixed-point integers, with one
public power-of-two scale per column chosen so that the column sum cannot
overflow, and adds a mask from Z/2^64 to every word.

The protocol being modeled is the pairwise masking of Bonawitz et al.,
*Practical Secure Aggregation* (CCS 2017): every pair of devices j < k
shares a uniform mask that j adds and k subtracts. What the server sees
depends only on each device's total mask, and the vector of totals is
uniform on the subgroup {M : sum_k M_k = 0 mod 2^64}, because the map from
pair masks to totals is a surjective homomorphism onto it. The simulator
therefore draws the totals directly: m - 1 uniform rows, and minus their
wrapping sum for the last device. That gives the server the same joint law
of masked encodings for O(m d) work instead of O(m^2 d). Each masked
vector is uniform on its own, and the masks cancel in the wrapping sum, so
the result is exact after quantization: it equals the sum of the unmasked
fixed-point encodings bit for bit and does not depend on the mask seed.
Contributions holding inf or NaN cannot be encoded and get the plain
result.

Counters track how many averages were requested and a modeled
communication cost of m * d + m^2 units per call. That cost is the
pairwise protocol's traffic (vectors up and pairwise key agreement), not
the simulator's work.
"""

from __future__ import annotations

import numpy as np

# Column sums of the fixed-point encodings stay below 2**_SUM_BITS < 2**63.
_SUM_BITS = 62


def _zero_sum_masks(rng: np.random.Generator, m: int, width: int) -> np.ndarray:
    """(m, width) uint64 masks, uniform subject to each column summing to 0 mod 2**64.

    Rows 0..m-2 are raw draws from ``rng``'s bit generator; the last row is
    minus their wrapping column sum.
    """
    masks = np.empty((m, width), dtype=np.uint64)
    masks[:-1] = rng.bit_generator.random_raw((m - 1, width))
    masks[-1] = -masks[:-1].sum(axis=0, dtype=np.uint64)
    return masks


class SecureAverageOracle:
    """Weighted-average aggregator standing in for a secure-summation protocol.

    Parameters
    ----------
    mode : str
        "plain" computes the weighted mean directly; "masked" simulates the
        mask-and-sum protocol described in the module docstring.
    seed : int, optional
        Seed for the masks in masked mode: m - 1 rows drawn uniformly from
        Z/2^64 per call, plus a last row that makes every column sum to 0
        (see the module docstring). The masks cancel exactly, so the result
        does not depend on the seed; a fixed seed makes the masks
        themselves reproducible.
    """

    def __init__(self, mode: str = "plain", seed: int | None = None):
        if mode not in ("plain", "masked"):
            raise ValueError("mode must be 'plain' or 'masked'")
        self.mode = mode
        self.call_count = 0
        self.bytes_modeled = 0
        self._rng = np.random.default_rng(seed)

    def average(self, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Weighted average of row vectors; one call on the counters.

        ``values`` is (m, d) with one row per device, so a single device is
        a (1, d) array and a 1-d array raises ``ValueError``. ``weights`` is
        (m,) strictly positive.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 1:
            raise ValueError("values must be a nonempty (m, d) array")
        weights = np.asarray(weights, dtype=float).ravel()
        if weights.shape[0] != values.shape[0]:
            raise ValueError("weights length must match number of contributions")
        if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and strictly positive")

        m, d = values.shape
        self.call_count += 1
        self.bytes_modeled += m * d + m * m

        if self.mode == "masked":
            # Masked mode aggregates the stacked vector [beta * v, beta] so the
            # weight total is never revealed in the clear either.
            contrib = np.concatenate([values * weights[:, None], weights[:, None]], axis=1)
            # Masks cannot hide an inf and the quantizer cannot encode one, so
            # such a call falls through to the plain result; a diverging run
            # then halts as it does in plain mode.
            if np.all(np.isfinite(contrib)):
                # Column c is encoded as rint(x * 2**shift_c). frexp bounds the
                # column maximum below 2**e_c and (m - 1).bit_length() is
                # ceil(log2 m), so the m encodings of a column sum to less than
                # 2**_SUM_BITS in magnitude. ldexp applies the shift without
                # forming 2**shift_c, which is not a finite double for tiny or
                # subnormal columns.
                colmax = np.abs(contrib).max(axis=0)
                shift = _SUM_BITS - np.frexp(colmax)[1] - (m - 1).bit_length()
                shift[colmax == 0.0] = 0
                masked = np.rint(np.ldexp(contrib, shift)).astype(np.int64).view(np.uint64)
                masked += _zero_sum_masks(self._rng, m, d + 1)
                total = masked.sum(axis=0, dtype=np.uint64).view(np.int64)
                total = np.ldexp(total.astype(float), -shift)
                return total[:d] / total[d]

        return (weights @ values) / weights.sum()
