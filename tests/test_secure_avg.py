"""Tests for the simulated secure weighted-average oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgm.geomed import WeightedPointSet, smoothed_weiszfeld
from fedgm.secure_avg import SecureAverageOracle

RNG_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def fixed_point_encodings(values, weights):
    """Each device's encoding of [beta * v, beta] in exact Python integers, and the shifts.

    Column c is encoded as round(x * 2**shift_c) with
    shift_c = 62 - frexp(colmax)[1] - ceil(log2 m), or 0 for a zero column.
    """
    contrib = np.column_stack([values * weights[:, None], weights])
    shifts = []
    for col in contrib.T.tolist():
        colmax = max(abs(x) for x in col)
        shifts.append(62 - math.frexp(colmax)[1] - math.ceil(math.log2(len(col))) if colmax else 0)
    rows = [[round(math.ldexp(x, shift)) for x, shift in zip(row, shifts)] for row in contrib.tolist()]
    return rows, shifts


def decoded_average(column_sums, shifts):
    """Decode the column sums of the encodings and divide by the weight column."""
    sums = [math.ldexp(float(total), -shift) for total, shift in zip(column_sums, shifts)]
    return np.array(sums[:-1]) / sums[-1]


def quantized_sum_average(values, weights):
    """Unmasked reference for masked mode: the exact sum of the encodings, decoded."""
    rows, shifts = fixed_point_encodings(values, weights)
    return decoded_average([sum(col) for col in zip(*rows)], shifts)


def _zero_sum_masks(rng: np.random.Generator, m: int, width: int) -> np.ndarray:
    """(m, width) uint64 masks, uniform subject to each column summing to 0 mod 2**64.

    Rows 0..m-2 are raw draws from ``rng``'s bit generator; the last row is
    minus their wrapping column sum. These are the per-device mask totals of
    pairwise masking, whose law the oracle's module docstring derives.
    """
    masks = np.empty((m, width), dtype=np.uint64)
    masks[:-1] = rng.bit_generator.random_raw((m - 1, width))
    masks[-1] = -masks[:-1].sum(axis=0, dtype=np.uint64)
    return masks


class TestPlainMode:
    def test_single_contribution_is_identity(self):
        oracle = SecureAverageOracle("plain")
        v = np.array([[1.5, -2.0, 3.0]])
        out = oracle.average(v, np.array([0.7]))
        assert np.allclose(out, v[0])
        with pytest.raises(ValueError, match=r"\(m, d\)"):
            oracle.average(v[0], np.array([0.7]))

    def test_symmetric_pair_cancels(self):
        oracle = SecureAverageOracle("plain")
        vals = np.array([[1.0, 2.0], [-1.0, -2.0]])
        out = oracle.average(vals, np.array([3.0, 3.0]))
        assert np.allclose(out, 0.0)

    def test_matches_manual_weighted_mean(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((5, 3))
        wts = rng.uniform(0.1, 2.0, 5)
        oracle = SecureAverageOracle("plain")
        out = oracle.average(vals, wts)
        expected = (wts[:, None] * vals).sum(axis=0) / wts.sum()
        assert np.allclose(out, expected, atol=1e-14)

    def test_rejects_bad_inputs(self):
        oracle = SecureAverageOracle("plain")
        with pytest.raises(ValueError):
            oracle.average(np.zeros((2, 2)), np.ones(3))
        with pytest.raises(ValueError):
            oracle.average(np.zeros((2, 2)), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            oracle.average(np.zeros((0, 2)), np.ones(0))
        # Rows of no coordinates are empty too, as for a WeightedPointSet.
        with pytest.raises(ValueError, match=r"nonempty \(m, d\)"):
            oracle.average(np.zeros((2, 0)), np.ones(2))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            SecureAverageOracle("homomorphic")


class TestMaskedMode:
    @given(seed=RNG_SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_masked_matches_plain(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 9))
        d = int(rng.integers(1, 6))
        vals = rng.standard_normal((m, d)) * 10 ** rng.uniform(-2, 2)
        wts = rng.uniform(0.1, 5.0, m)
        plain = SecureAverageOracle("plain").average(vals, wts)
        masked = SecureAverageOracle("masked").average(vals, wts)
        scale = max(1.0, float(np.abs(plain).max()))
        assert np.abs(masked - plain).max() <= 1e-9 * scale

    def test_exact_and_independent_of_seed(self):
        # The benchmark still passes seed=, which the oracle accepts and ignores.
        rng = np.random.default_rng(5)
        vals = rng.standard_normal((40, 7)) * 1e-3
        wts = rng.uniform(0.1, 5.0, 40)
        expected = quantized_sum_average(vals, wts).tobytes()
        for seed in (None, 0, 1, 11):
            out = SecureAverageOracle("masked", seed=seed).average(vals, wts)
            assert out.tobytes() == expected

    def test_error_does_not_grow_with_m(self):
        rng = np.random.default_rng(8)
        vals = rng.standard_normal((300, 100)) * 1e-3
        wts = rng.uniform(0.1, 5.0, 300)
        plain = SecureAverageOracle("plain").average(vals, wts)
        masked = SecureAverageOracle("masked").average(vals, wts)
        assert np.abs(masked - plain).max() <= 1e-14 * np.abs(plain).max()

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_zero_sum_masks_are_the_raw_draws_closed_by_the_last_row(self, m):
        masks = _zero_sum_masks(np.random.default_rng(21), m, 4)
        assert masks.shape == (m, 4) and masks.dtype == np.uint64
        draws = np.random.PCG64(21).random_raw((m - 1, 4))
        assert np.array_equal(masks[:-1], draws)
        assert masks[-1].tolist() == [-sum(col) % 2**64 for col in draws.T.tolist()]
        assert all(sum(col) % 2**64 == 0 for col in masks.T.tolist())
        assert m == 1 or masks.any()

    @pytest.mark.parametrize("m", [1, 2, 5, 33])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_masked_encodings_sum_to_the_oracle_result(self, m, seed):
        # What the server would receive, each encoding plus its device's mask
        # mod 2**64, sums with wraparound to the bits the oracle returns: the
        # masks it does not draw would cancel exactly.
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal((m, 3)) * 10.0 ** rng.uniform(-5, 5)
        wts = rng.uniform(0.1, 5.0, m)
        rows, shifts = fixed_point_encodings(vals, wts)
        masks = _zero_sum_masks(np.random.default_rng(seed), m, len(shifts)).tolist()
        received = [[(x + k) % 2**64 for x, k in zip(row, mask)] for row, mask in zip(rows, masks)]
        assert m == 1 or received[0] != [x % 2**64 for x in rows[0]]
        sums = []
        for col in zip(*received):
            total = sum(col) % 2**64
            sums.append(total - 2**64 if total >= 2**63 else total)
        out = SecureAverageOracle("masked").average(vals, wts)
        assert out.tobytes() == decoded_average(sums, shifts).tobytes()

    @pytest.mark.parametrize(
        "bad,weight",
        [(np.inf, 1.0), (-np.inf, 1.0), (np.nan, 1.0), (1e300, 1e10)],
    )
    def test_non_finite_contribution_gives_plain_result(self, bad, weight):
        vals = np.array([[1.0, 2.0], [bad, 0.5], [-1.0, 3.0]])
        wts = np.array([1.0, weight, 2.0])
        with np.errstate(over="ignore", invalid="ignore"):
            plain = SecureAverageOracle("plain").average(vals, wts)
            masked = SecureAverageOracle("masked").average(vals, wts)
        assert np.array_equal(masked, plain, equal_nan=True)

    def test_subnormal_column_is_exact(self):
        vals = np.array([[5e-324, 1.0], [1e-320, 2.0], [2e-310, 3.0]])
        wts = np.ones(3)
        masked = SecureAverageOracle("masked").average(vals, wts)
        assert np.array_equal(masked, SecureAverageOracle("plain").average(vals, wts))

    @given(
        seed=RNG_SEEDS,
        m=st.integers(min_value=1, max_value=64),
        exponent=st.integers(min_value=-300, max_value=300),
        zero_columns=st.lists(st.booleans(), min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_the_quantized_sum_bit_for_bit(self, seed, m, exponent, zero_columns):
        # Guards the int64 column sum and the non-finite check on the column
        # maximum against the exact-integer reference.
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal((m, len(zero_columns))) * 10.0**exponent
        vals[:, zero_columns] = 0.0
        wts = rng.uniform(0.1, 5.0, m)
        expected = quantized_sum_average(vals, wts)
        assert SecureAverageOracle("masked").average(vals, wts).tobytes() == expected.tobytes()

    @given(
        seed=RNG_SEEDS,
        exponent=st.integers(min_value=-300, max_value=300),
        zero_columns=st.lists(st.booleans(), min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_finite_magnitudes_stay_accurate(self, seed, exponent, zero_columns):
        rng = np.random.default_rng(seed)
        m, d = int(rng.integers(1, 9)), len(zero_columns)
        vals = rng.standard_normal((m, d)) * 10.0**exponent
        vals[:, zero_columns] = 0.0
        wts = rng.uniform(0.1, 5.0, m)
        plain = SecureAverageOracle("plain").average(vals, wts)
        masked = SecureAverageOracle("masked").average(vals, wts)
        assert np.all(np.isfinite(masked))
        assert np.all(masked[zero_columns] == 0.0)
        # The average of column c is bounded by max_k |v_kc|; both modes
        # round relative to that magnitude.
        assert np.all(np.abs(masked - plain) <= 1e-12 * np.abs(vals).max(axis=0))

    def test_single_contribution_identity_masked(self):
        oracle = SecureAverageOracle("masked")
        v = np.array([[4.0, -1.0]])
        out = oracle.average(v, np.array([2.0]))
        assert np.allclose(out, v[0], atol=1e-12)
        with pytest.raises(ValueError, match=r"\(m, d\)"):
            oracle.average(v[0], np.array([2.0]))


# Weights that are not finite and strictly positive, both zeros and the negative
# subnormal nearest zero included.
BAD_WEIGHTS = [math.nan, math.inf, -math.inf, 0.0, -0.0, -5e-324, -1.0]


class TestWeightValidation:
    """Both modes reject a bad weight wherever it sits, before counting a call."""

    @pytest.mark.parametrize("mode", ["plain", "masked"])
    @pytest.mark.parametrize("bad", BAD_WEIGHTS)
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_rejects_nonfinite_or_nonpositive_weight(self, mode, bad, at):
        oracle = SecureAverageOracle(mode)
        weights = np.ones(3)
        weights[at] = bad
        with pytest.raises(ValueError, match="finite and strictly positive"):
            oracle.average(np.ones((3, 2)), weights)
        assert oracle.call_count == oracle.bytes_modeled == 0

    @pytest.mark.parametrize("mode", ["plain", "masked"])
    def test_rejects_nan_among_otherwise_bad_weights(self, mode):
        oracle = SecureAverageOracle(mode)
        for weights in ([math.nan, -1.0, 1.0], [1.0, math.inf, math.nan], [math.nan] * 3):
            with pytest.raises(ValueError, match="finite and strictly positive"):
                oracle.average(np.ones((3, 2)), np.array(weights))

    @pytest.mark.parametrize("mode", ["plain", "masked"])
    def test_accepts_the_extreme_positive_finite_weights(self, mode):
        oracle = SecureAverageOracle(mode)
        out = oracle.average(np.ones((3, 2)), np.array([5e-324, 1.0, 1e308]))
        assert np.array_equal(out, np.ones(2)) and oracle.call_count == 1

    @pytest.mark.parametrize("bad", BAD_WEIGHTS)
    def test_point_sets_reject_the_same_weights_with_the_same_message(self, bad):
        weights = np.array([1.0, bad, 1.0])
        with pytest.raises(ValueError) as oracle_error:
            SecureAverageOracle("plain").average(np.ones((3, 2)), weights)
        with pytest.raises(ValueError) as point_set_error:
            WeightedPointSet(np.ones((3, 2)), weights)
        assert str(oracle_error.value) == str(point_set_error.value)


class TestCounters:
    def test_each_average_counts_once(self):
        oracle = SecureAverageOracle("plain")
        for expected in range(1, 4):
            oracle.average(np.ones((2, 2)), np.ones(2))
            assert oracle.call_count == expected

    def test_modeled_traffic_grows_by_md_plus_m_squared(self):
        oracle = SecureAverageOracle("plain")
        oracle.average(np.ones((3, 4)), np.ones(3))
        assert oracle.bytes_modeled == 3 * 4 + 3 * 3
        oracle.average(np.ones((2, 5)), np.ones(2))
        assert oracle.bytes_modeled == (3 * 4 + 9) + (2 * 5 + 4)

    def test_one_weiszfeld_step_is_one_call(self):
        rng = np.random.default_rng(9)
        ps = WeightedPointSet(rng.standard_normal((6, 3)), rng.uniform(0.5, 1.5, 6))
        oracle = SecureAverageOracle("plain")
        for _ in range(2):
            smoothed_weiszfeld(
                ps, 1e-6, budget=1, rel_tol=0.0, z0=np.zeros(3), oracle=oracle
            )
        assert oracle.call_count == 2
