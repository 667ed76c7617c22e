"""Unit and property tests for the geometric-median toolbox."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgm import geomed
from fedgm.geomed import WeightedPointSet, _smoothed_distances, smoothed_weiszfeld
from fedgm.secure_avg import SecureAverageOracle

from conftest import (
    brute_force_gm,
    diameter,
    displacement_bound,
    eta_update,
    gm_objective,
    hull_distance,
    lipschitz_constant,
    row_distances,
    smoothed_objective,
)

RNG_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def equilateral() -> WeightedPointSet:
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, math.sqrt(3.0)]])
    return WeightedPointSet(pts, np.ones(3) / 3.0)


def random_set(seed: int, m: int | None = None, d: int | None = None) -> WeightedPointSet:
    rng = np.random.default_rng(seed)
    m = m if m is not None else int(rng.integers(2, 12))
    d = d if d is not None else int(rng.integers(1, 5))
    return WeightedPointSet(rng.standard_normal((m, d)), rng.uniform(0.2, 2.0, m))


class TestWeightedPointSet:
    def test_weights_normalized_to_one(self):
        ps = WeightedPointSet(np.zeros((3, 2)), np.array([1.0, 2.0, 3.0]))
        assert np.isclose(ps.weights.sum(), 1.0)
        assert np.allclose(ps.weights, [1 / 6, 2 / 6, 3 / 6])

    def test_shape_properties(self):
        ps = WeightedPointSet(np.zeros((4, 3)), np.ones(4))
        assert ps.m == 4 and ps.d == 3

    def test_diameter_of_unit_segment(self):
        ps = WeightedPointSet(np.array([[0.0], [1.0]]), np.ones(2))
        assert np.isclose(diameter(ps.points), 1.0)

    def test_rejects_empty_points(self):
        with pytest.raises(ValueError):
            WeightedPointSet(np.zeros((0, 2)), np.ones(0))

    def test_rejects_weight_count_mismatch(self):
        with pytest.raises(ValueError):
            WeightedPointSet(np.zeros((3, 2)), np.ones(2))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            WeightedPointSet(np.zeros((2, 2)), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -5e-324, -1.0])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_rejects_nonfinite_or_nonpositive_weight_anywhere(self, bad, at):
        weights = np.ones(3)
        weights[at] = bad
        with pytest.raises(ValueError, match="finite and strictly positive"):
            WeightedPointSet(np.zeros((3, 2)), weights)

    def test_rejects_nan_among_otherwise_bad_weights(self):
        for weights in ([math.nan, -1.0, 1.0], [1.0, math.inf, math.nan], [math.nan] * 3):
            with pytest.raises(ValueError, match="finite and strictly positive"):
                WeightedPointSet(np.zeros((3, 2)), np.array(weights))

    def test_accepts_the_extreme_positive_finite_weights(self):
        ps = WeightedPointSet(np.zeros((3, 2)), np.array([5e-324, 1.0, 1e300]))
        assert np.isclose(ps.weights.sum(), 1.0)

    def test_rejects_nonfinite_points(self):
        with pytest.raises(ValueError):
            WeightedPointSet(np.array([[np.inf, 0.0]]), np.ones(1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_nonfinite_coordinate_anywhere(self, bad):
        points = np.zeros((3, 2))
        points[2, 1] = bad
        with pytest.raises(ValueError, match="points must be finite"):
            WeightedPointSet(points, np.ones(3))

    def test_rejects_weights_whose_sum_overflows(self):
        # Each weight is finite, but dividing by their inf sum would make
        # every normalized weight 0.
        with pytest.raises(ValueError, match="weights must have a finite sum"):
            WeightedPointSet(np.zeros((3, 2)), np.full(3, 1e308))


class TestGMObjective:
    def test_zero_at_single_point(self):
        ps = WeightedPointSet(np.array([[1.0, 2.0]]), np.ones(1))
        assert gm_objective(np.array([1.0, 2.0]), ps) == 0.0

    def test_symmetric_pair(self):
        ps = WeightedPointSet(np.array([[1.0], [-1.0]]), np.array([0.5, 0.5]))
        assert np.isclose(gm_objective(np.zeros(1), ps), 1.0)

    def test_matches_straight_line_summation(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((4, 2))
        wts = rng.uniform(0.5, 2.0, 4)
        ps = WeightedPointSet(pts, wts)
        z = np.array([0.3, 0.3])
        expected = 0.0
        for k in range(4):
            expected += (wts[k] / wts.sum()) * math.sqrt(
                (z[0] - pts[k, 0]) ** 2 + (z[1] - pts[k, 1]) ** 2
            )
        assert np.isclose(gm_objective(z, ps), expected, rtol=1e-12)

    @given(seed=RNG_SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_translation_invariance(self, seed):
        ps = random_set(seed)
        rng = np.random.default_rng(seed + 1)
        z = rng.standard_normal(ps.d)
        shift = rng.standard_normal(ps.d)
        shifted = WeightedPointSet(ps.points + shift, ps.weights)
        assert np.isclose(
            gm_objective(z, ps), gm_objective(z + shift, shifted), rtol=1e-9
        )


def at_origin(d: int) -> WeightedPointSet:
    """One point at the origin, so g_nu(v) is the smoothed norm of v."""
    return WeightedPointSet(np.zeros((1, d)), np.ones(1))


class TestSmoothedNorm:
    """The smoothed norm h_nu, read as g_nu on one point at the origin."""

    def test_origin_gives_half_nu(self):
        assert np.isclose(smoothed_objective(np.zeros(3), at_origin(3), 0.5), 0.25)

    def test_outer_branch_is_plain_norm(self):
        assert np.isclose(smoothed_objective(np.array([2.0, 0.0]), at_origin(2), 1.0), 2.0)

    def test_branches_agree_at_seam(self):
        v = np.array([0.8])
        nu = 0.8
        inner = np.dot(v, v) / (2 * nu) + nu / 2
        assert np.isclose(smoothed_objective(v, at_origin(1), nu), 0.8)
        assert np.isclose(inner, 0.8)

    def test_rejects_nonpositive_nu(self):
        with pytest.raises(ValueError):
            smoothed_objective(np.ones(2), at_origin(2), 0.0)

    @pytest.mark.parametrize("nu", [1e-6, 0.5])
    def test_distances_keep_the_bits_of_the_where_form(self, nu):
        # The reference: h_nu in one np.where, which squares min(r, nu), so
        # that no distance overflows.
        r = np.array(
            [0.0, nu / 2, nu, np.nextafter(nu, np.inf), 1.0, 1e200, 1e308, np.inf, np.nan]
        )
        near = np.minimum(r, nu)
        reference = np.where(r <= nu, near * near / (2.0 * nu) + nu / 2.0, r)
        given_r = r.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            h = _smoothed_distances(r, nu)
        assert h.tobytes() == reference.tobytes()
        assert r.tobytes() == given_r.tobytes()

    @given(seed=RNG_SEEDS, nu=st.floats(min_value=1e-6, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_sandwich(self, seed, nu):
        v = np.random.default_rng(seed).standard_normal(3)
        plain = float(np.linalg.norm(v))
        smoothed = smoothed_objective(v, at_origin(3), nu)
        assert plain - 1e-12 <= smoothed <= plain + nu / 2 + 1e-12


class TestSmoothedObjective:
    def test_equals_plain_objective_far_from_points(self):
        ps = random_set(3)
        z = ps.points.mean(axis=0) + 50.0
        nu = 1e-3
        assert np.isclose(
            smoothed_objective(z, ps, nu), gm_objective(z, ps), rtol=1e-12
        )

    def test_single_point_at_origin(self):
        ps = WeightedPointSet(np.array([[1.0, 1.0]]), np.ones(1))
        assert np.isclose(smoothed_objective(np.array([1.0, 1.0]), ps, 0.5), 0.25)

    @given(seed=RNG_SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_sandwich_property(self, seed):
        ps = random_set(seed)
        z = np.random.default_rng(seed + 9).standard_normal(ps.d)
        nu = 10 ** np.random.default_rng(seed).uniform(-6, 0)
        gap = smoothed_objective(z, ps, nu) - gm_objective(z, ps)
        assert -1e-12 <= gap <= nu / 2 + 1e-12


def one_step(z, ps, nu, oracle=None):
    """One smoothed Weiszfeld step from z; ``beta`` and ``trace[0]`` are taken at z."""
    return smoothed_weiszfeld(ps, nu, budget=1, rel_tol=0.0, z0=z, oracle=oracle)


class TestEtaUpdate:
    """The reweight clamp beta_k = a_k / max(nu, ||z - w_k||) of a solver step."""

    def test_clamps_at_own_point(self):
        ps = WeightedPointSet(np.array([[1.0, 0.0], [3.0, 0.0]]), np.ones(2))
        res = one_step(ps.points[0], ps, 1e-4)
        assert res.beta[0] == ps.weights[0] / 1e-4
        assert res.beta[1] == pytest.approx(ps.weights[1] / 2.0)

    def test_unclamped_branch(self):
        nu = 0.2
        ps = WeightedPointSet(np.array([[3 * nu], [-3 * nu]]), np.ones(2))
        res = one_step(np.zeros(1), ps, nu)
        assert res.beta == pytest.approx(ps.weights / (3 * nu))

    def test_always_at_least_nu(self):
        ps = random_set(17)
        nu = 0.05
        res = one_step(ps.points[0], ps, nu)
        assert res.beta[0] == ps.weights[0] / nu
        assert (res.beta <= ps.weights / nu).all()


class TestLipschitzConstant:
    """The recorded L = sum_k beta_k at the start point of a solver step."""

    def test_all_eta_at_nu(self):
        nu = 1e-3
        ps = random_set(2, m=5)
        ps = WeightedPointSet(1e-5 * ps.points, ps.weights)
        res = one_step(ps.points[0], ps, nu)
        assert res.trace[0].lipschitz == res.beta.sum()
        assert np.isclose(res.trace[0].lipschitz, 1.0 / nu)

    def test_constant_eta(self):
        square = 2.5 * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        ps = WeightedPointSet(square, np.arange(1.0, 5.0))
        res = one_step(np.zeros(2), ps, 1e-6)
        assert res.trace[0].lipschitz == res.beta.sum()
        assert np.isclose(res.trace[0].lipschitz, 1.0 / 2.5)

    def test_matches_direct_summation(self):
        ps = random_set(23, m=6)
        nu = 1e-6
        z0 = ps.points[0]
        res = one_step(z0, ps, nu)
        expected = sum(
            ps.weights[k] / max(nu, math.dist(z0, ps.points[k])) for k in range(6)
        )
        assert res.trace[0].lipschitz == res.beta.sum()
        assert np.isclose(res.trace[0].lipschitz, expected, rtol=1e-12)


class TestWeiszfeldStep:
    def test_fixed_point_at_equilateral_centroid(self):
        ps = equilateral()
        centroid = ps.points.mean(axis=0)
        z_next = one_step(centroid, ps, 1e-6).z
        assert np.allclose(z_next, centroid, atol=1e-12)

    def test_single_point_returns_it(self):
        ps = WeightedPointSet(np.array([[4.0, 5.0]]), np.ones(1))
        z_next = one_step(np.array([100.0, -3.0]), ps, 1e-6).z
        assert np.allclose(z_next, [4.0, 5.0])

    def test_hand_computed_two_point_step(self):
        ps = WeightedPointSet(np.array([[0.0], [1.0]]), np.array([0.7, 0.3]))
        res = one_step(np.array([0.5]), ps, 1e-6)
        # beta = (0.7/0.5, 0.3/0.5); average = (0.6/0.5) / (1.0/0.5) * ... = 0.3
        assert res.z[0] == pytest.approx(0.3, rel=1e-12)
        assert np.allclose(res.beta, [1.4, 0.6])

    def test_exactly_one_oracle_call(self):
        ps = random_set(5)
        oracle = SecureAverageOracle("plain")
        one_step(np.zeros(ps.d), ps, 1e-6, oracle)
        assert oracle.call_count == 1

    @given(seed=RNG_SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_lands_in_convex_hull(self, seed):
        ps = random_set(seed)
        z = np.random.default_rng(seed + 4).standard_normal(ps.d) * 5
        z_next = one_step(z, ps, 1e-6).z
        assert hull_distance(z_next, ps.points) <= 1e-7


class TestSmoothedWeiszfeld:
    def test_equilateral_terminates_at_centroid(self):
        # At 1e152, r^2 / (2 nu) overflows for every distance, all far above nu.
        for scale in (1.0, 1e152):
            ps = WeightedPointSet(scale * equilateral().points, equilateral().weights)
            res = smoothed_weiszfeld(ps)
            assert res.converged_by == "relative_improvement"
            assert res.iterations <= 2
            assert np.allclose(res.z, ps.points.mean(axis=0), atol=1e-9 * scale)

    def test_two_point_weighted_median(self):
        nu = 1e-6
        ps = WeightedPointSet(np.array([[0.0], [1.0]]), np.array([0.7, 0.3]))
        res = smoothed_weiszfeld(ps, nu=nu, budget=100, rel_tol=0.0)
        assert abs(res.z[0]) < 1e-5
        assert 0.3 - 1e-12 <= res.g_value <= 0.3 + nu / 2 + 1e-9

    def test_single_point_short_circuit(self):
        ps = WeightedPointSet(np.array([[2.0, 3.0]]), np.ones(1))
        res = smoothed_weiszfeld(ps)
        assert res.iterations == 0
        assert res.oracle_calls == 0
        assert np.allclose(res.z, [2.0, 3.0])
        assert len(res.trace) == 1

    def test_result_is_beta_weighted_average(self):
        ps = random_set(31)
        res = smoothed_weiszfeld(ps, rel_tol=0.0, budget=60)
        assert (res.beta > 0).all()
        recombined = (res.beta[:, None] * ps.points).sum(axis=0) / res.beta.sum()
        assert np.allclose(res.z, recombined, atol=1e-9)

    def test_objective_gap_in_smoothing_band(self):
        ps = random_set(13)
        nu = 1e-4
        res = smoothed_weiszfeld(ps, nu=nu)
        assert -1e-12 <= res.trace[-1].g_nu - res.g_value <= nu / 2 + 1e-12

    def test_smoothed_objective_never_increases_along_trace(self):
        ps = random_set(41)
        res = smoothed_weiszfeld(ps, rel_tol=0.0, budget=50)
        g_nus = [rec.g_nu for rec in res.trace]
        for before, after in zip(g_nus, g_nus[1:]):
            assert after <= before + 1e-12

    def test_budget_exhaustion_reported(self):
        ps = random_set(47)
        res = smoothed_weiszfeld(ps, budget=1, rel_tol=0.0)
        assert res.converged_by == "budget"
        assert res.iterations == 1

    def test_default_start_costs_one_extra_call(self):
        ps = random_set(53)
        res = smoothed_weiszfeld(ps, budget=10, rel_tol=0.0)
        assert res.oracle_calls == res.iterations + 1
        oracle = SecureAverageOracle("plain")
        res2 = smoothed_weiszfeld(ps, budget=10, rel_tol=0.0, oracle=oracle)
        assert oracle.call_count == res2.oracle_calls

    def test_explicit_start_skips_mean_call(self):
        ps = random_set(59)
        res = smoothed_weiszfeld(ps, budget=5, rel_tol=0.0, z0=ps.points[0])
        assert res.oracle_calls == res.iterations

    def test_trace_covers_every_iterate(self):
        ps = random_set(61)
        res = smoothed_weiszfeld(ps, budget=20, rel_tol=0.0)
        assert len(res.trace) == res.iterations + 1
        assert [rec.t for rec in res.trace] == list(range(res.iterations + 1))

    def test_validation_errors(self):
        ps = random_set(3)
        with pytest.raises(ValueError):
            smoothed_weiszfeld(ps, budget=0)
        with pytest.raises(ValueError):
            smoothed_weiszfeld(ps, nu=0.0)
        with pytest.raises(ValueError):
            smoothed_weiszfeld(ps, rel_tol=-1.0)
        for nu, rel_tol in ((math.nan, 1e-6), (math.inf, 1e-6), (1e-6, math.nan), (1e-6, math.inf)):
            with pytest.raises(ValueError):
                smoothed_weiszfeld(ps, nu=nu, rel_tol=rel_tol)
        with pytest.raises(ValueError):
            smoothed_weiszfeld(ps, z0=np.zeros(ps.d + 1))

        class UncheckedMean:
            def average(self, values, weights):
                return weights @ values / weights.sum()

        for bad in (math.nan, math.inf):
            z0 = np.zeros(ps.d)
            z0[0] = bad
            # Without the check, this oracle turns a non-finite z0 into a NaN
            # solve that reports converged_by="budget".
            with pytest.raises(ValueError, match="z0 must be finite"):
                smoothed_weiszfeld(ps, z0=z0, oracle=UncheckedMean())
        single = WeightedPointSet(np.array([[2.0, 3.0]]), np.ones(1))
        with pytest.raises(ValueError):
            smoothed_weiszfeld(single, z0=np.zeros(3))

    @pytest.mark.parametrize("seed", [71, 73, 79])
    def test_trace_matches_reference_helpers(self, seed):
        ps = random_set(seed)
        nu = 1e-3
        res = smoothed_weiszfeld(ps, nu=nu, budget=25, rel_tol=0.0)
        assert res.iterations >= 1
        for rec in res.trace:
            assert rec.g == gm_objective(rec.z, ps)
            assert rec.g_nu == smoothed_objective(rec.z, ps, nu)
            assert rec.lipschitz == lipschitz_constant(eta_update(rec.z, ps, nu), ps)
        dists = row_distances(ps.points, res.trace[-2].z)
        assert np.array_equal(res.beta, ps.weights / np.maximum(dists, nu))

    def test_both_branches_of_the_iterate_keep_the_reference_bits(self, monkeypatch):
        """An iterate with no distance within nu takes g_nu = g and beta = a / r.

        Only an iterate with some distance within nu calls
        ``_smoothed_distances``. On either branch every record, and the final
        beta, keep the bits of the reference helpers.
        """
        nu = 1e-3
        spread = np.random.default_rng(5).standard_normal((6, 3))
        cases = {
            # The start is a data point, so one distance is 0 at t = 0.
            "start_on_a_point": (WeightedPointSet(spread, np.ones(6)), spread[2]),
            # Two coincident points hold 6/11 of the weight, so the median is
            # their point and the iterates come within nu of it.
            "coincident": (
                WeightedPointSet(np.vstack([spread[:1], spread]), [3, 3, 1, 1, 1, 1, 1]),
                None,
            ),
            # Started at the mean, every iterate stays far from every point.
            "far": (WeightedPointSet(spread, np.ones(6)), None),
        }
        calls = []

        def counted(r, nu):
            calls.append(nu)
            return _smoothed_distances(r, nu)

        monkeypatch.setattr(geomed, "_smoothed_distances", counted)
        near = {}
        for name, (ps, z0) in cases.items():
            calls.clear()
            res = smoothed_weiszfeld(ps, nu=nu, budget=60, rel_tol=0.0, z0=z0)
            assert res.iterations >= 1
            near[name] = [bool((row_distances(ps.points, rec.z) <= nu).any()) for rec in res.trace]
            assert len(calls) == sum(near[name])
            for rec in res.trace:
                assert rec.g == gm_objective(rec.z, ps)
                assert rec.g_nu == smoothed_objective(rec.z, ps, nu)
                assert rec.lipschitz == lipschitz_constant(eta_update(rec.z, ps, nu), ps)
            dists = row_distances(ps.points, res.trace[-2].z)
            assert res.beta.tobytes() == (ps.weights / np.maximum(dists, nu)).tobytes()
        assert near["start_on_a_point"][0] and not all(near["start_on_a_point"])
        assert any(near["coincident"]) and not all(near["coincident"])
        assert not any(near["far"])

    def test_budget_must_be_an_integer_before_any_oracle_call(self):
        # A uint8 budget of 255 wrapped budget + 1 to 0 and raised IndexError
        # on an empty trace, and 2.5 raised TypeError from range, each after
        # the mean start had spent an oracle call.
        ps = random_set(3)
        wide = smoothed_weiszfeld(ps, budget=255, rel_tol=0.0)
        narrow = smoothed_weiszfeld(ps, budget=np.uint8(255), rel_tol=0.0)
        assert narrow.iterations == wide.iterations
        assert narrow.to_json_dict() == wide.to_json_dict()
        for bad in (2.5, 3.0, math.nan, "3", np.float64(3), 0, np.int8(-1), True):
            oracle = SecureAverageOracle("plain")
            with pytest.raises(ValueError, match="budget must be an integer >= 1"):
                smoothed_weiszfeld(ps, budget=bad, oracle=oracle)
            assert oracle.call_count == 0

    def test_default_oracle_is_plain(self):
        ps = random_set(83)
        res = smoothed_weiszfeld(ps, budget=30, rel_tol=1e-9)
        res_plain = smoothed_weiszfeld(
            ps, budget=30, rel_tol=1e-9, oracle=SecureAverageOracle("plain")
        )
        assert np.array_equal(res.z, res_plain.z)
        assert np.array_equal(res.beta, res_plain.beta)
        assert res.to_json_dict() == res_plain.to_json_dict()

    def test_overflowing_distances_raise_with_or_without_oracle(self):
        # A tenth of the weight near 1e200 makes the mean start's distances
        # overflow to inf, so its objective is not finite and the solver
        # raises before the first step's oracle call.
        honest = np.random.default_rng(0).standard_normal((9, 2))
        pts = np.vstack([honest, [1e200, 1e200]])
        ps = WeightedPointSet(pts, np.ones(10))
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError):
                smoothed_weiszfeld(ps)
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError):
                smoothed_weiszfeld(ps, oracle=SecureAverageOracle("plain"))

    @pytest.mark.parametrize("budget, rel_tol", [(1, 0.0), (5, 1e-6)])
    def test_an_objective_that_overflows_raises_before_the_next_call(self, budget, rel_tol):
        # Every coordinate is finite, and so is the objective at the mean
        # start, but step 1's squared distances overflow. Whether or not the
        # budget allows step 2, the error names the overflow and comes
        # before step 2's average, with two calls spent.
        ps = WeightedPointSet(np.array([[9e153, 0.0], [-9e153, 0.0], [8e153, 1.0]]), np.ones(3))
        oracle = SecureAverageOracle("plain")
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match="^distances overflow: the objective is not finite$"):
                smoothed_weiszfeld(ps, budget=budget, rel_tol=rel_tol, oracle=oracle)
        assert oracle.call_count == 2

    def test_same_bits_as_the_reference_on_every_memory_layout(self):
        # A point set holds its rows in C order whatever the caller's
        # layout, so every layout gives the same bits.
        rng = np.random.default_rng(89)
        base = rng.standard_normal((80, 90))
        weights = rng.uniform(0.2, 2.0, 40)
        view = base[::2, ::3]
        nu = 1e-3
        results = []
        for pts in (np.ascontiguousarray(view), np.asfortranarray(view), view):
            ps = WeightedPointSet(pts, weights)
            res = smoothed_weiszfeld(ps, nu=nu, budget=25, rel_tol=0.0)
            assert res.iterations >= 1
            for rec in res.trace:
                assert rec.g == gm_objective(rec.z, ps)
                assert rec.g_nu == smoothed_objective(rec.z, ps, nu)
            dists = row_distances(ps.points, res.trace[-2].z)
            assert np.array_equal(res.beta, ps.weights / np.maximum(dists, nu))
            results.append(res)
        for res in results[1:]:
            assert np.array_equal(res.z, results[0].z)
            assert np.array_equal(res.beta, results[0].beta)

    @pytest.mark.parametrize("m", [41, 46])
    def test_same_bits_as_the_reference_across_block_seams(self, monkeypatch, m):
        # A 1-byte budget puts the distance pass at its floor of 8 rows per
        # block, and m is not a multiple of 8, so the last block is shifted
        # back over rows the block before it already computed.
        monkeypatch.setattr("fedgm.geomed._BLOCK_BYTES", 1)
        rng = np.random.default_rng(103)
        base = rng.standard_normal((2 * m, 90))
        weights = rng.uniform(0.2, 2.0, m)
        view = base[::2, ::3]
        nu = 1e-3
        for pts in (np.ascontiguousarray(view), np.asfortranarray(view), view):
            ps = WeightedPointSet(pts, weights)
            res = smoothed_weiszfeld(ps, nu=nu, budget=10, rel_tol=0.0)
            assert res.iterations >= 1
            for rec in res.trace:
                assert rec.g == gm_objective(rec.z, ps)
                assert rec.g_nu == smoothed_objective(rec.z, ps, nu)
            dists = row_distances(ps.points, res.trace[-2].z)
            assert np.array_equal(res.beta, ps.weights / np.maximum(dists, nu))

    def test_final_distances_are_close_to_linalg_norm_on_every_memory_layout(self):
        # One dot per row and norm's pairwise row sum add in other orders,
        # so the bits may differ, but only in the last place or so.
        rng = np.random.default_rng(109)
        base = rng.standard_normal((80, 90))
        view = base[::2, ::3]
        nu = 1e-3
        for pts in (np.ascontiguousarray(view), np.asfortranarray(view), view):
            ps = WeightedPointSet(pts, rng.uniform(0.2, 2.0, 40))
            res = smoothed_weiszfeld(ps, nu=nu, budget=25, rel_tol=0.0)
            norm = np.linalg.norm(ps.points - res.trace[-2].z, axis=1)
            assert np.allclose(res.beta, ps.weights / np.maximum(norm, nu), rtol=1e-15, atol=0.0)

    def test_rows_longer_than_a_threaded_dot_agree_across_blas_thread_counts(self):
        # OpenBLAS splits a dot of more than 10^4 entries over its threads,
        # so at d = 2*10^4 the distance bits may differ between 1 and 2
        # threads (on an x86_64 SkylakeX core, the final z differed in about
        # half its entries, by 1.3e-16 relative); the solve must still agree
        # to rounding. Four steps keep the relative improvement far above
        # rel_tol = 0, so both runs stop after the same step.
        code = """
import json
import numpy as np
from fedgm.geomed import WeightedPointSet, smoothed_weiszfeld
rng = np.random.default_rng(113)
ps = WeightedPointSet(rng.standard_normal((8, 20_000)), rng.uniform(0.5, 1.5, 8))
res = smoothed_weiszfeld(ps, budget=4, rel_tol=0.0)
print(json.dumps({"iterations": res.iterations, "z": res.z.tolist()}))
"""
        solves = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            solves.append(json.loads(proc.stdout))
        assert solves[0]["iterations"] == solves[1]["iterations"] == 4
        z1, z2 = (np.array(s["z"]) for s in solves)
        assert np.linalg.norm(z1 - z2) <= 1e-12 * np.linalg.norm(z1)

    def test_solve_writes_neither_the_callers_points_nor_its_own(self):
        pts = np.random.default_rng(97).standard_normal((30, 4))
        saved = pts.copy()
        ps = WeightedPointSet(pts, np.ones(30))
        own = ps.points.copy()
        smoothed_weiszfeld(ps, budget=10, rel_tol=0.0)
        smoothed_weiszfeld(ps, budget=10, rel_tol=0.0, z0=pts[3])
        assert np.array_equal(pts, saved)
        assert np.array_equal(ps.points, own)

    def test_peak_memory_is_one_distance_buffer(self):
        # A temporary (m, d) array per iterate, as pts - z makes, would put
        # the peak at two buffers; numpy reports its data to tracemalloc.
        m, d = 4000, 50
        pts = np.random.default_rng(101).standard_normal((m, d))
        ps = WeightedPointSet(pts, np.ones(m))
        smoothed_weiszfeld(ps, budget=20, rel_tol=0.0)
        tracemalloc.start()
        try:
            smoothed_weiszfeld(ps, budget=20, rel_tol=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * m * d * 8

    def test_peak_memory_is_a_fraction_of_one_distance_buffer(self):
        # The distance pass works a cache-sized block of rows at a time; a
        # whole (m, d) scratch buffer, 8 MB here, would fail this bound.
        m, d = 10_000, 100
        pts = np.random.default_rng(107).standard_normal((m, d))
        ps = WeightedPointSet(pts, np.ones(m))
        smoothed_weiszfeld(ps, budget=5, rel_tol=0.0)
        tracemalloc.start()
        try:
            smoothed_weiszfeld(ps, budget=5, rel_tol=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * m * d * 8

    def test_json_dict_round_trips(self):
        ps = random_set(67)
        res = smoothed_weiszfeld(ps)
        payload = json.loads(json.dumps(res.to_json_dict()))
        assert payload["iterations"] == res.iterations
        assert payload["converged_by"] == res.converged_by
        assert len(payload["trace"]) == len(res.trace)
        assert set(payload["trace"][0]) == {"t", "g", "g_nu", "L"}

    @given(seed=RNG_SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_solution_translates_with_the_points(self, seed):
        ps = random_set(seed, m=6, d=2)
        rng = np.random.default_rng(seed + 5)
        shift = rng.standard_normal(2)
        res = smoothed_weiszfeld(ps, budget=40, rel_tol=0.0)
        shifted = WeightedPointSet(ps.points + shift, ps.weights)
        res_shifted = smoothed_weiszfeld(shifted, budget=40, rel_tol=0.0)
        assert np.allclose(res.z + shift, res_shifted.z, atol=1e-6)


class TestBruteForce:
    def test_equilateral_centroid(self):
        ps = equilateral()
        z = brute_force_gm(ps)
        assert np.allclose(z, ps.points.mean(axis=0), atol=1e-6)

    def test_weighted_median_on_a_line(self):
        ps = WeightedPointSet(
            np.array([[0.0], [1.0], [2.0]]), np.array([0.6, 0.2, 0.2])
        )
        z = brute_force_gm(ps)
        assert abs(z[0]) < 1e-6
        # Points in R^1 are an (m, 1) array; the median of 0, 1 and 5 is 1.
        flat = WeightedPointSet(np.array([[0.0], [1.0], [5.0]]), np.ones(3))
        assert flat.points.shape == (3, 1)
        assert brute_force_gm(flat) == pytest.approx([1.0], abs=1e-6)
        assert smoothed_weiszfeld(flat).z == pytest.approx([1.0], abs=1e-6)
        with pytest.raises(ValueError, match=r"\(m, d\)"):
            WeightedPointSet(np.array([0.0, 1.0, 5.0]), np.ones(3))

    def test_agrees_with_iterative_solver(self):
        for seed in (101, 202, 303):
            ps = random_set(seed, m=8, d=3)
            res = smoothed_weiszfeld(ps, budget=80, rel_tol=0.0)
            g_ref = gm_objective(brute_force_gm(ps), ps)
            assert (res.g_value - g_ref) / g_ref <= 1e-5

    def test_rejects_oversized_instances(self):
        rng = np.random.default_rng(0)
        ps = WeightedPointSet(rng.standard_normal((60, 2)), np.ones(60))
        with pytest.raises(ValueError):
            brute_force_gm(ps)


class TestRobustnessBounds:
    def test_displacement_bound_at_theta_zero(self):
        assert displacement_bound(0.0, 0.0, 3.0) == pytest.approx(6.0)

    def test_displacement_bound_monotone_in_theta(self):
        values = [displacement_bound(t, 0.1, 1.0) for t in (0.0, 0.2, 0.4, 0.49)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_theta_at_half(self):
        with pytest.raises(ValueError):
            displacement_bound(0.5, 0.0, 1.0)


class TestHullDistance:
    def test_interior_point(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert hull_distance(np.array([0.5, 0.5]), square) <= 1e-9

    def test_exterior_point(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert hull_distance(np.array([2.0, 0.5]), square) == pytest.approx(1.0, abs=1e-6)
