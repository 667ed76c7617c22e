"""Tests for the simulated secure weighted-average oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgm.geomed import WeightedPointSet, smoothed_weiszfeld
from fedgm import secure_avg
from fedgm.secure_avg import SecureAverageOracle, _zero_sum_masks

RNG_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def quantized_sum_average(values, weights):
    """Unmasked reference for masked mode, in exact Python integers.

    Column c of [beta * v, beta] is encoded as round(x * 2**shift_c) with
    shift_c = 62 - frexp(colmax_c) - ceil(log2 m), or 0 for a zero column;
    the column sums are decoded and divided.
    """
    contrib = np.column_stack([values * weights[:, None], weights])
    sums = []
    for col in contrib.T.tolist():
        colmax = max(abs(x) for x in col)
        shift = 0
        if colmax:
            shift = 62 - math.frexp(colmax)[1] - math.ceil(math.log2(len(col)))
        total = sum(round(math.ldexp(x, shift)) for x in col)
        sums.append(math.ldexp(float(total), -shift))
    return np.array(sums[:-1]) / sums[-1]


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
        masked = SecureAverageOracle("masked", seed=seed).average(vals, wts)
        scale = max(1.0, float(np.abs(plain).max()))
        assert np.abs(masked - plain).max() <= 1e-9 * scale

    def test_masked_is_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((4, 2))
        wts = rng.uniform(0.5, 1.5, 4)
        a = SecureAverageOracle("masked", seed=11).average(vals, wts)
        b = SecureAverageOracle("masked", seed=11).average(vals, wts)
        assert np.array_equal(a, b)

    def test_exact_and_independent_of_seed(self):
        rng = np.random.default_rng(5)
        vals = rng.standard_normal((40, 7)) * 1e-3
        wts = rng.uniform(0.1, 5.0, 40)
        a = SecureAverageOracle("masked", seed=0).average(vals, wts)
        b = SecureAverageOracle("masked", seed=1).average(vals, wts)
        assert a.tobytes() == b.tobytes()
        assert np.array_equal(a, quantized_sum_average(vals, wts))

    def test_error_does_not_grow_with_m(self):
        rng = np.random.default_rng(8)
        vals = rng.standard_normal((300, 100)) * 1e-3
        wts = rng.uniform(0.1, 5.0, 300)
        plain = SecureAverageOracle("plain").average(vals, wts)
        masked = SecureAverageOracle("masked", seed=8).average(vals, wts)
        assert np.abs(masked - plain).max() <= 1e-14 * np.abs(plain).max()

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_one_mask_row_per_device_but_the_last_is_drawn(self, m):
        oracle = SecureAverageOracle("masked", seed=21)
        oracle.average(np.ones((m, 3)), np.ones(m))
        expected = np.random.PCG64(21)
        expected.advance((m - 1) * 4)  # d + 1 = 4 words per drawn row
        assert oracle._rng.bit_generator.state == expected.state

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_zero_sum_masks_are_the_raw_draws_closed_by_the_last_row(self, m):
        masks = _zero_sum_masks(np.random.default_rng(21), m, 4)
        assert masks.shape == (m, 4) and masks.dtype == np.uint64
        draws = np.random.PCG64(21).random_raw((m - 1, 4))
        assert np.array_equal(masks[:-1], draws)
        assert masks[-1].tolist() == [-sum(col) % 2**64 for col in draws.T.tolist()]
        assert all(sum(col) % 2**64 == 0 for col in masks.T.tolist())
        assert m == 1 or masks.any()

    def test_masks_are_added_to_the_encodings(self, monkeypatch):
        # Masks that do not sum to zero: 2**63 on one word flips the sign of
        # that column's wrapping sum, which shows only if average() adds them.
        def one_word_masks(rng, m, width):
            masks = np.zeros((m, width), dtype=np.uint64)
            masks[0, 0] = 2**63
            return masks

        monkeypatch.setattr(secure_avg, "_zero_sum_masks", one_word_masks)
        vals, wts = np.array([[1.0], [2.0]]), np.ones(2)
        out = SecureAverageOracle("masked", seed=0).average(vals, wts)
        assert not np.array_equal(out, SecureAverageOracle("plain").average(vals, wts))

    @pytest.mark.parametrize(
        "bad,weight",
        [(np.inf, 1.0), (-np.inf, 1.0), (np.nan, 1.0), (1e300, 1e10)],
    )
    def test_non_finite_contribution_gives_plain_result(self, bad, weight):
        vals = np.array([[1.0, 2.0], [bad, 0.5], [-1.0, 3.0]])
        wts = np.array([1.0, weight, 2.0])
        with np.errstate(over="ignore", invalid="ignore"):
            plain = SecureAverageOracle("plain").average(vals, wts)
            masked = SecureAverageOracle("masked", seed=4).average(vals, wts)
        assert np.array_equal(masked, plain, equal_nan=True)

    def test_subnormal_column_is_exact(self):
        vals = np.array([[5e-324, 1.0], [1e-320, 2.0], [2e-310, 3.0]])
        wts = np.ones(3)
        masked = SecureAverageOracle("masked", seed=2).average(vals, wts)
        assert np.array_equal(masked, SecureAverageOracle("plain").average(vals, wts))

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
        masked = SecureAverageOracle("masked", seed=seed).average(vals, wts)
        assert np.all(np.isfinite(masked))
        assert np.all(masked[zero_columns] == 0.0)
        # The average of column c is bounded by max_k |v_kc|; both modes
        # round relative to that magnitude.
        assert np.all(np.abs(masked - plain) <= 1e-12 * np.abs(vals).max(axis=0))

    def test_single_contribution_identity_masked(self):
        oracle = SecureAverageOracle("masked", seed=0)
        v = np.array([[4.0, -1.0]])
        out = oracle.average(v, np.array([2.0]))
        assert np.allclose(out, v[0], atol=1e-12)
        with pytest.raises(ValueError, match=r"\(m, d\)"):
            oracle.average(v[0], np.array([2.0]))


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
