"""Simulated secure weighted-average oracle with call accounting.

The oracle computes sum_k beta_k v_k / sum_k beta_k over device
contributions. In "masked" mode each device encodes its stacked
contribution [beta_k v_k, beta_k] as 64-bit fixed-point integers, with one
public power-of-two scale per column chosen so that the column sum cannot
overflow, and the server sums the encodings and decodes the total.

The protocol being modeled is the pairwise masking of Bonawitz et al.,
*Practical Secure Aggregation* (CCS 2017): every pair of devices j < k
shares a uniform mask from Z/2^64 that j adds to its encoding and k
subtracts. What the server would see depends only on each device's total
mask, and the vector of totals is uniform on the subgroup
{M : sum_k M_k = 0 mod 2^64}, because the map from pair masks to totals is
a surjective homomorphism onto it. So each masked vector the server
receives is uniform on its own, and the masks cancel in the wrapping sum.
The simulator does not draw them: the server's result is the sum of the
unmasked fixed-point encodings bit for bit, and only that sum is returned.
Contributions holding inf or NaN cannot be encoded and get the plain
result.

Counters track how many averages were requested and a modeled
communication cost of m * d + m^2 units per call. That cost is the
pairwise protocol's traffic (vectors up and pairwise key agreement), not
the simulator's work.

The module also holds the library's input rules, each written once. It
imports no other fedgm module, and ``geomed``, ``fl_core``, ``tasks`` and
``corruption`` all import it, so each takes the rules from here without
importing another. Any input that breaks a rule raises ``ValueError``.
The tables ``REAL_SITES`` and ``COUNT_SITES`` in ``tests/test_input_rules.py``
list every input each scalar rule covers, with its message and bounds.

- The count rule ``_count``: an ``int`` or numpy integer, not a ``bool``,
  within the caller's bounds, used as an ``int``.
- The real rule ``_real``: an ``int``, ``float``, numpy integer or numpy
  floating value, not a ``bool``, finite and within the caller's bounds,
  used as a ``float``.
- ``_store`` applies either rule to named fields of a frozen spec and
  stores what it returns.
- The rows-and-weights rule ``_rows_and_weights``: rows are a nonempty,
  C-ordered (m, d) array and their weights an (m,) array, finite and
  strictly positive. The oracle and ``geomed.WeightedPointSet`` share it.
"""

from __future__ import annotations

import sys

import numpy as np

# Column sums of the fixed-point encodings stay within 2**_SUM_BITS < 2**63.
_SUM_BITS = 62


def _count(value, message: str, least: int = 1, most: float = np.inf) -> int:
    """``value`` as an int if it is an int or numpy integer in [``least``, ``most``].

    Anything else, a bool included, raises ``ValueError(message)``. As an
    int, a count cannot wrap in later arithmetic the way a narrow numpy
    integer can, such as ``budget + 1`` at ``np.uint8(255)``.
    """
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and least <= value <= most):
        raise ValueError(message)
    return int(value)


def _real(value, message: str, least: float = 0.0, most: float = sys.float_info.max) -> float:
    """``value`` as a float if it is a finite int, float or numpy real in [``least``, ``most``].

    A numpy real is a numpy integer or floating value, and it is compared
    as a Python float: compared as itself, a float32 would round a Python
    bound to float32, so that 1 - 2**-53 became 1. Anything else raises
    ``ValueError(message)``: a bool (whose type is not int), a str, None,
    NaN, an infinity, or a value out of bounds. The default ``most`` is the
    largest finite float. Open ends are written with Python floats:
    ``least=math.ulp(0.0)`` admits exactly the floats above 0, and
    ``most=math.nextafter(1.0, 0.0)`` exactly those below 1.
    """
    value = float(value) if isinstance(value, (np.integer, np.floating)) else value
    if not (type(value) in (int, float) and least <= value <= most):
        raise ValueError(message)
    return float(value)


def _store(spec, rule, message: str, *names: str, **bounds) -> None:
    """Store each named field of a frozen spec as ``rule`` (``_count`` or ``_real``) returns it.

    ``message`` and ``bounds`` go to the rule, so a field that breaks it
    raises ``ValueError(message)``. Storing a count as an int keeps a narrow
    numpy integer from overflowing in later arithmetic, such as
    ``steps * 2**t``, and storing a real as a float gives float results.
    """
    for name in names:
        object.__setattr__(spec, name, rule(getattr(spec, name), message, **bounds))


def _rows_and_weights(rows, weights, name: str) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` as a nonempty, C-ordered (m, d) float array and ``weights`` as an (m,) one.

    Rows held in C order make every sum over them follow the values alone,
    not the caller's memory layout; a C-ordered float array is returned as
    it is. The weights must be finite and strictly positive. Each failure
    raises ``ValueError``, whose message names the rows ``name``.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    if rows.ndim != 2 or not rows.size:
        raise ValueError(f"{name} must be a nonempty (m, d) array")
    weights = np.asarray(weights, dtype=float).ravel()
    if weights.shape[0] != rows.shape[0]:
        raise ValueError(f"weights length must match number of {name}")
    # A NaN weight makes the minimum NaN, which fails the first comparison.
    if not (0.0 < weights.min() and weights.max() < np.inf):
        raise ValueError("weights must be finite and strictly positive")
    return rows, weights


class SecureAverageOracle:
    """Weighted-average aggregator standing in for a secure-summation protocol.

    Parameters
    ----------
    mode : str
        "plain" computes the weighted mean directly; "masked" computes the
        result of the mask-and-sum protocol described in the module
        docstring, the exact sum of fixed-point encodings.
    seed : int, optional
        Ignored. The simulator draws no masks (see the module docstring), so
        nothing takes a seed. The keyword stays only because the benchmark's
        ``perfbench/workloads.py`` still passes it; the benchmark change that
        stops passing it (ROADMAP item 1, slice C) deletes it here too.
    """

    def __init__(self, mode: str = "plain", seed: int | None = None):
        if mode not in ("plain", "masked"):
            raise ValueError("mode must be 'plain' or 'masked'")
        self.mode = mode
        self.call_count = 0
        self.bytes_modeled = 0

    def average(self, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Weighted average of row vectors; one call on the counters.

        ``values`` is a nonempty (m, d) array with one row per device, so a
        single device is a (1, d) array and a 1-d array raises
        ``ValueError``. ``weights`` is (m,), finite and strictly positive.
        """
        values, weights = _rows_and_weights(values, weights, "values")
        m, d = values.shape
        self.call_count += 1
        self.bytes_modeled += m * d + m * m

        if self.mode == "masked":
            # Masked mode aggregates the stacked vector [beta * v, beta] so the
            # weight total is never revealed in the clear either.
            contrib = np.empty((m, d + 1))
            np.multiply(values, weights[:, None], out=contrib[:, :d])
            contrib[:, d] = weights
            # The maximum carries any inf or NaN. Masks cannot hide an inf and
            # the quantizer cannot encode one, so such a call falls through to
            # the plain result; a diverging run then halts as it does in plain
            # mode.
            colmax = np.abs(contrib).max(axis=0)
            if np.isfinite(colmax).all():
                # Column c is encoded as rint(x * 2**shift_c). frexp bounds the
                # column maximum below 2**e_c and (m - 1).bit_length() is
                # ceil(log2 m), so the m encodings of a column sum to at most
                # 2**_SUM_BITS in magnitude and the int64 sum is exact; a zero
                # column has exponent 0 and encodes as zeros. ldexp applies the
                # shift without forming 2**shift_c, which is not a finite double
                # for tiny or subnormal columns.
                shift = _SUM_BITS - np.frexp(colmax)[1] - (m - 1).bit_length()
                total = np.rint(np.ldexp(contrib, shift)).astype(np.int64).sum(axis=0)
                total = np.ldexp(total.astype(float), -shift)
                return total[:d] / total[d]

        return (weights @ values) / weights.sum()
