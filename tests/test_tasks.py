"""Tests for synthetic task generation and partitioning."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from fedgm.fl_core import RoundTrace, trace_diverged
from fedgm.tasks import (
    FederatedPartition,
    _bounded_features,
    exact_optimum,
    generate_ls_task,
    least_squares_gradient,
    least_squares_loss,
)


def central_fd_gradient(loss, w, args, h=1e-6):
    g = np.zeros_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (loss(w + e, *args) - loss(w - e, *args)) / (2 * h)
    return g


class TestLeastSquares:
    def test_loss_hand_computed(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([2.0, 0.0])
        w = np.array([1.0, 1.0])
        # residuals (-1, 1), loss = 0.5 * mean(1, 1) = 0.5
        assert least_squares_loss(w, x, y) == pytest.approx(0.5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        w = rng.standard_normal(4)
        g = least_squares_gradient(w, x, y)
        fd = central_fd_gradient(least_squares_loss, w, (x, y))
        assert np.abs(g - fd).max() <= 1e-6 * max(1.0, np.abs(g).max())

    def test_exact_optimum_zeroes_the_gradient(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((50, 3))
        y = rng.standard_normal(50)
        w = exact_optimum(x, y)
        assert np.abs(least_squares_gradient(w, x, y)).max() < 1e-10

    def test_exact_optimum_rejects_rank_deficiency(self):
        x = np.ones((10, 3))
        with pytest.raises(ValueError):
            exact_optimum(x, np.ones(10))

    @pytest.mark.parametrize("scale", [1e-100, 1e-6, 1.0, 1e6, 1e100])
    def test_rank_test_does_not_depend_on_the_feature_scale(self, scale):
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal((50, 3)), rng.standard_normal(50)
        # Scaling the features by s scales the optimum by 1/s.
        assert np.allclose(scale * exact_optimum(scale * x, y), exact_optimum(x, y), rtol=1e-9)
        deficient = x.copy()
        deficient[:, 2] = 2.0 * deficient[:, 0]
        with pytest.raises(ValueError, match="rank deficient"):
            exact_optimum(scale * deficient, y)


class TestGenerateLSTask:
    def test_deterministic_for_fixed_seed(self):
        a, _ = generate_ls_task(4, 10, 20, 0.1, seed=7)
        b, _ = generate_ls_task(4, 10, 20, 0.1, seed=7)
        assert np.array_equal(a.train_features, b.train_features)
        assert np.array_equal(a.train_labels, b.train_labels)
        c, _ = generate_ls_task(4, 10, 20, 0.1, seed=8)
        assert not np.array_equal(a.train_labels, c.train_labels)

    def test_feature_norms_bounded_with_spread(self):
        task, _ = generate_ls_task(5, 20, 30, 0.1, seed=1)
        norms = np.linalg.norm(
            np.vstack([task.train_features, task.test_features]), axis=1
        )
        assert norms.max() == pytest.approx(1.0, abs=1e-12)
        assert norms.min() < 0.9 * norms.max()

    def test_features_are_centered(self):
        task, _ = generate_ls_task(3, 20, 30, 0.0, seed=2)
        pooled = np.vstack([task.train_features, task.test_features])
        assert np.abs(pooled.mean(axis=0)).max() < 1e-12

    def test_ground_truth_is_a_unit_vector(self):
        task, _ = generate_ls_task(10, 5, 10, 0.1, seed=3)
        assert np.linalg.norm(task.w_star) == pytest.approx(1.0, rel=1e-12)

    def test_noiseless_optimum_recovers_ground_truth(self):
        task, _ = generate_ls_task(4, 20, 25, 0.0, seed=4)
        assert np.allclose(task.optimum, task.w_star, atol=1e-9)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            generate_ls_task(0, 5, 5, 0.1)
        with pytest.raises(ValueError):
            generate_ls_task(3, 5, 5, -0.1)


def whole_array_bounded_features(rng, n, d):
    """The reference: ``_bounded_features`` with each row-norm pass one ``np.linalg.norm`` call."""
    phi = rng.standard_normal((n, d))
    norms = np.linalg.norm(phi, axis=1)
    norms[norms == 0.0] = 1.0
    radii = rng.uniform(0.3, 1.0, size=n)
    phi /= norms[:, None]
    phi *= radii[:, None]
    phi -= phi.mean(axis=0)
    max_norm = float(np.linalg.norm(phi, axis=1).max())
    if max_norm > 0.0:
        phi *= 1.0 / max_norm
    return phi


class TestBoundedFeatures:
    """The row norms are squared a block of rows at a time, with ``norm``'s bits."""

    # One row, a few rows, many narrow rows, the masked-wide shape, and rows
    # wider than one 256 KB block.
    @pytest.mark.parametrize("n, d", [(1, 1), (7, 3), (6000, 10), (5000, 100), (2, 40000)])
    def test_equals_the_whole_array_norms_bit_for_bit(self, n, d):
        for seed in (0, 1):
            got = _bounded_features(np.random.default_rng(seed), n, d)
            want = whole_array_bounded_features(np.random.default_rng(seed), n, d)
            assert got.tobytes() == want.tobytes()

    def test_makes_no_whole_array_temporary(self):
        """Guard: ``np.linalg.norm`` squared into two (n, d) temporaries, about twice the peak."""
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            phi = _bounded_features(np.random.default_rng(0), 5000, 100)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * phi.nbytes


# The task shapes of the benchmark's fl-attack, masked-wide and doubling
# workloads; only doubling's labels are noiseless.
WORKLOAD_SHAPES = {
    "fl-attack": dict(d=10, devices=100, samples_per_device=50, noise_std=0.1),
    "masked-wide": dict(d=100, devices=200, samples_per_device=20, noise_std=0.1),
    "doubling": dict(d=40, devices=30, samples_per_device=120, noise_std=0.0, test_samples=100),
}


def direct_losses(task, w):
    """(train, test) ``least_squares_loss`` of w, read from every row of each split."""
    return (
        least_squares_loss(w, task.train_features, task.train_labels),
        least_squares_loss(w, task.test_features, task.test_labels),
    )


class TestQuadraticLosses:
    """``task.loss`` evaluates each split's stored quadratic about the optimum."""

    @pytest.fixture(params=WORKLOAD_SHAPES, scope="class")
    def shape(self, request):
        return WORKLOAD_SHAPES[request.param]

    @pytest.fixture(scope="class")
    def task(self, shape):
        return generate_ls_task(**shape, seed=11)[0]

    def test_equals_the_direct_loss_bit_for_bit_at_the_optimum(self, task):
        got, want = task.loss(task.optimum), direct_losses(task, task.optimum)
        assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_agrees_with_the_direct_loss(self, task, shape):
        # Near the optimum of noiseless labels the loss is about e^T A e / 2,
        # and both forms lose digits to rounding: at ||e|| = 1e-12 each differs
        # from a long-double reference by 1e-6 to 1e-5 relative. So at noise 0
        # the direct form is a reference only from ||e|| = 1e-4 up.
        rng = np.random.default_rng(12)
        noisy = shape["noise_std"] > 0.0
        lowest = -12 if noisy else -4
        points = [rng.standard_normal(task.d) for _ in range(5)] if noisy else []
        for _ in range(40):
            e = rng.standard_normal(task.d)
            points.append(task.optimum + 10.0 ** rng.uniform(lowest, 2) * e / np.linalg.norm(e))
        for w in points:
            for got, want in zip(task.loss(w), direct_losses(task, w), strict=True):
                assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("value", [1e160, 1e200, 1e300, np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", ["one", "all", "alternating"])
    def test_non_finite_or_overflowing_models_give_non_finite_losses(self, task, value, where):
        w = task.optimum.copy()
        if where == "one":
            w[task.d // 2] = value
        else:
            w[:] = value
            if where == "alternating":
                w[::2] *= -1.0
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = task.loss(w), direct_losses(task, w)
        assert not any(np.isfinite(got)) and not any(np.isfinite(want))
        trace = RoundTrace(0, got[0], got[1], math.inf, 1, 0, (0,))
        assert trace_diverged([trace])


def generate(**sizes):
    """A small valid least-squares task, with ``sizes`` overriding its inputs."""
    kwargs = dict(d=3, devices=4, samples_per_device=5, test_samples=6)
    kwargs.update(sizes)
    return generate_ls_task(noise_std=0.1, **kwargs)


# Some test ids below name the task, least_squares, so that they match the
# ids that earlier runs of this suite recorded.
class TestGeneratorValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"d": 0},
            {"devices": 0},
            {"samples_per_device": 0},
            {"test_samples": 0},
        ],
        ids=[
            f"{name}-least_squares"
            for name in ("d", "devices", "samples_per_device", "test_samples")
        ],
    )
    def test_rejects_bad_input(self, bad):
        with pytest.raises(ValueError):
            generate(**bad)

    @pytest.mark.parametrize("test_samples", [0, -1, -5])
    def test_test_samples_must_be_positive(self, test_samples):
        with pytest.raises(ValueError, match="test_samples must be positive"):
            generate(test_samples=test_samples)

    @pytest.mark.parametrize("task_name", ["least_squares"])
    def test_valid_input_accepted(self, task_name):
        _, part = generate()
        assert part.devices == 4 and np.all(np.isfinite(part.device_features))

    @pytest.mark.parametrize("noise_std", [math.nan, math.inf])
    def test_noise_std_must_be_finite(self, noise_std):
        # NaN passed the old ``noise_std < 0`` check and failed ``noise_std > 0``,
        # so it built the noiseless task; inf gave NaN labels.
        with pytest.raises(ValueError, match="noise_std must be finite and nonnegative"):
            generate_ls_task(3, 4, 5, noise_std, test_samples=6)

    def test_sizes_must_be_integers(self):
        message = "d, devices, samples_per_device and test_samples must be positive integers"
        for name in ("d", "devices", "samples_per_device", "test_samples"):
            # True built a task of one dimension, device or sample.
            for bad in (2.5, 3.0, math.nan, "3", True):
                with pytest.raises(ValueError, match=message):
                    generate(**{name: bad})

    def test_narrow_integer_sizes_are_used_as_ints(self):
        # Kept as uint8, 200 devices of 2 samples made 400 % 256 = 144 train
        # rows, and the partition's reshape failed.
        sizes = dict(d=3, devices=200, samples_per_device=2, test_samples=6)
        narrow = {name: np.uint8(v) for name, v in sizes.items()}
        task, part = generate(**narrow)
        want_task, want_part = generate(**sizes)
        assert part.device_features.shape == (200, 2, 3) and type(task.d) is int
        assert part.device_labels.tobytes() == want_part.device_labels.tobytes()
        assert task.optimum.tobytes() == want_task.optimum.tobytes()


    def test_seed_follows_the_count_rule(self):
        # int(seed) built seed 2's task at 2.5 and seed 1's at True.
        for bad in (2.5, np.float64(1.0), True, -1, "1", None):
            with pytest.raises(ValueError, match="^seed must be a nonnegative integer$"):
                generate(seed=bad)
        narrow, plain = generate(seed=np.uint8(2))[0], generate(seed=2)[0]
        assert narrow.optimum.tobytes() == plain.optimum.tobytes()

    def test_fewer_train_rows_than_d_raise_before_anything_is_drawn(self):
        # 4 devices x 5 samples = 20 train rows. At d = 2000 the rank check
        # alone would first build a 32 MB (d, d) Gram.
        assert generate(d=20)[0].d == 20
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^devices \* samples_per_device must be at least d$"):
                generate(d=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16


class TestPartition:
    def test_shapes_and_alphas(self):
        task, part = generate_ls_task(3, 8, 12, 0.1, seed=6)
        assert part.devices == 8
        assert all(f.shape == (12, 3) for f in part.device_features)
        # Equal shards: every device holds 12 of the 96 samples, so weighs 1/8.
        assert part.device_labels.shape == (8, 12) and not hasattr(part, "alphas")
        names = [f.name for f in dataclasses.fields(FederatedPartition)]
        assert names == ["device_features", "device_labels"]

    def test_shards_are_contiguous(self):
        task, part = generate_ls_task(2, 4, 5, 0.0, seed=9)
        recombined = np.vstack(part.device_features)
        assert np.array_equal(recombined, task.train_features)
        # The shards are stacked views of the train data, not copies.
        assert part.device_features.shape == (4, 5, 2)
        assert part.device_labels.shape == (4, 5)
        assert np.shares_memory(part.device_features, task.train_features)
        assert np.shares_memory(part.device_labels, task.train_labels)
        assert np.array_equal(part.device_labels[2], task.train_labels[10:15])

    def test_rows_are_read_only(self):
        task, part = generate_ls_task(2, 4, 5, 0.1, seed=9)
        for rows in (task.train_features, task.train_labels, task.test_features, task.test_labels):
            with pytest.raises(ValueError, match="read-only"):
                rows[0] = 0.0
        # A copy, such as the per-run copy that data poisoning makes, is writeable.
        copy = part.device_features.copy()
        copy[0] = 0.0
        assert np.all(copy[0] == 0.0)

    @pytest.mark.parametrize("size", ["devices", "samples_per_device", "test_samples"])
    def test_each_size_must_be_positive(self, size):
        sizes = {"devices": 2, "samples_per_device": 5, "test_samples": 3, size: 0}
        message = "devices, samples_per_device and test_samples must be positive"
        with pytest.raises(ValueError, match=message):
            generate_ls_task(d=2, noise_std=0.1, **sizes)


class TestBatchedGradient:
    """Leading batch axes give the per-device gradients, stacked."""

    @pytest.mark.parametrize("task_name", ["least_squares"])
    def test_batched_equals_stacked_per_device(self, task_name):
        task, part = generate_ls_task(4, 5, 7, 0.1, seed=21, test_samples=5)
        rng = np.random.default_rng(22)
        w = rng.standard_normal((part.devices, task.optimum.size))
        x = np.stack(part.device_features)
        y = np.stack(part.device_labels)
        batched = task.gradient(w, x, y)
        stacked = np.stack([task.gradient(w[k], x[k], y[k]) for k in range(part.devices)])
        assert batched.shape == w.shape
        assert np.abs(batched - stacked).max() <= 1e-12


class TestOneRowGradient:
    """At b = 1 the gradient has the bits of the row times its residual.

    That product is what ``fl_core``'s one-row step scales by gamma, so the
    step and ``task.gradient`` see the same residual and the same product.
    The matmul reduction over b sums from +0, so where the product is -0 the
    gradient returns +0 instead. ``np.array_equal`` counts the two zeros
    equal, and no trace column, summary field or digest prints the sign of
    a zero.
    """

    @staticmethod
    def row_times_residual(w, features, labels):
        x = features[..., 0, :]
        return x * (np.vecdot(x, w) - labels[..., 0])[..., None]

    @pytest.mark.parametrize("lead", [(), (7,)], ids=["unbatched", "batched"])
    def test_equals_the_row_times_its_residual(self, lead):
        rng = np.random.default_rng(41)
        for _ in range(300):
            d = int(rng.integers(1, 12))
            sx, sw, sy = 10.0 ** rng.uniform(-300, 300, size=3)
            x = sx * rng.standard_normal((*lead, 1, d))
            x[rng.random(x.shape) < 0.25] = 0.0
            w = sw * rng.standard_normal((*lead, d))
            y = sy * rng.standard_normal((*lead, 1))
            # Overflow can give inf - inf or 0 * inf, in both forms alike.
            with np.errstate(over="ignore", invalid="ignore"):
                got, ref = least_squares_gradient(w, x, y), self.row_times_residual(w, x, y)
            assert got.shape == (*lead, d)
            assert np.array_equal(got, ref, equal_nan=True)

    def test_zero_residual_differs_only_in_the_sign_of_zero(self):
        x = np.array([[-2.0, 0.0, 3.0]])
        w = np.array([1.0, 5.0, 1.0])
        y = x @ w
        got, ref = least_squares_gradient(w, x, y), self.row_times_residual(w, x, y)
        assert np.array_equal(got, ref)
        assert not np.signbit(got).any()
        assert np.signbit(ref).tolist() == [True, False, False]
