"""A synthetic federated learning task with an exactly known optimum.

The task is well-specified least squares: features are drawn with norms
at most 1, labels are a fixed linear function of the features plus
Gaussian noise, and the pooled empirical minimizer comes from the normal
equations. Each split's loss is stored as an exact quadratic about that
minimizer, so a model is scored without reading a row. The unit feature
scale is fixed: the constants of ``fl_core`` assume it. ``generate_ls_task``
is the one maker of tasks and partitions: it cuts the train rows into equal
device shards, and every row it returns is read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .secure_avg import _count, _real


def least_squares_loss(w: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
    """Mean squared residual loss 0.5 * mean (y - <w, x>)^2."""
    r = features @ w - labels
    return float(0.5 * np.mean(r * r))


def least_squares_gradient(
    w: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Gradient of ``least_squares_loss`` with respect to w.

    Leading batch axes are allowed: w (..., d), features (..., b, d) and
    labels (..., b) give one gradient per batch entry, shape (..., d).
    The residual is a ``vecdot`` and the reduction over b a ``matmul``. At
    b = 1 that gives the bits of the row times its residual, the product
    ``fl_core``'s one-row step scales by gamma, except that the reduction
    sums from +0, so a -0 product comes back as +0.
    """
    r = np.vecdot(features, w[..., None, :]) - labels
    return (r[..., None, :] @ features)[..., 0, :] / features.shape[-2]


def _gram(features: np.ndarray) -> np.ndarray:
    """The (d, d) second-moment matrix X^T X / N of (N, d) features."""
    return features.T @ features / features.shape[0]


def _solve_normal_equations(
    gram: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """``exact_optimum`` from the features' precomputed ``_gram``."""
    eigs = np.linalg.eigvalsh(gram)
    if not eigs[0] > 1e-12 * eigs[-1]:
        raise ValueError("feature matrix is rank deficient; optimum is not unique")
    return np.linalg.solve(gram, features.T @ labels / features.shape[0])


def exact_optimum(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Solve the normal equations for the pooled least-squares minimizer.

    Raises
    ------
    ValueError
        If the feature second-moment matrix is numerically rank deficient:
        its smallest eigenvalue is not above 1e-12 times its largest, a
        test that does not change when the features are rescaled.
    """
    return _solve_normal_equations(_gram(features), features, labels)


@dataclass(frozen=True)
class FederatedPartition:
    """Equal device shards as rows of stacked arrays, so every alpha_k is 1/K.

    ``device_features`` (K, n, d) and ``device_labels`` (K, n) are read-only
    views of the task's train rows: row k is device k's contiguous shard.
    They share memory with ``train_features`` and ``train_labels``, which
    the benchmark checks and the tests read as their reference, so a write
    into either raises.
    """

    device_features: np.ndarray
    device_labels: np.ndarray

    @property
    def devices(self) -> int:
        return len(self.device_features)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=1)`` of (n, d) rows, bit for bit.

    It is the sum of squares and root that ``norm`` computes, squared 256 KB
    of rows at a time instead of through two (n, d) temporaries.
    """
    rows, norms = max(1, 2**15 // x.shape[1]), np.empty(len(x))
    for start in range(0, len(x), rows):
        block = x[start : start + rows]
        np.sqrt(np.add.reduce(block * block, axis=1), out=norms[start : start + rows])
    return norms


def _bounded_features(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n random directions with radii in [0.3, 1], centred, then scaled to max norm 1.

    ``generate_ls_task``, the one caller, has checked that n and d are at least 1.
    """
    # The scaling and centring steps write the drawn array in place, and the
    # row norms square a block at a time, so no step makes an (n, d) temporary.
    phi = rng.standard_normal((n, d))
    norms = _row_norms(phi)
    norms[norms == 0.0] = 1.0
    radii = rng.uniform(0.3, 1.0, size=n)
    phi /= norms[:, None]
    phi *= radii[:, None]
    phi -= phi.mean(axis=0)
    max_norm = float(_row_norms(phi).max())
    if max_norm > 0.0:
        phi *= 1.0 / max_norm
    return phi


@dataclass(frozen=True)
class SyntheticLSTask:
    """Well-specified least-squares problem over features of norm at most 1.

    ``w_star`` generated the labels; ``optimum`` is the pooled empirical
    minimizer (identical to ``w_star`` when the labels carry no noise).

    Each split's ``least_squares_loss`` is a quadratic in e = w - optimum,
    stored when the task is made; row 0 of each array is the train split
    and row 1 the test split. With ``optimum_losses`` L(optimum),
    ``optimum_gradients`` g = X^T (X optimum - y) / N and ``grams``
    A = X^T X / N of that split's N rows, ``loss`` evaluates

        L(w) = L(optimum) + (g + A e / 2)^T e,

    exact up to rounding, in O(d^2) and without reading a row. The train g
    is zero up to rounding and is kept, so the identity holds as written.
    """

    d: int
    w_star: np.ndarray
    optimum: np.ndarray
    train_features: np.ndarray
    train_labels: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray
    optimum_losses: np.ndarray
    optimum_gradients: np.ndarray
    grams: np.ndarray

    def loss(self, w: np.ndarray) -> tuple[float, float]:
        """(train loss, test loss) of model w, from the stored quadratics."""
        e = w - self.optimum
        losses = self.optimum_losses + (self.optimum_gradients + 0.5 * (self.grams @ e)) @ e
        return float(losses[0]), float(losses[1])

    def gradient(self, w: np.ndarray, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
        return least_squares_gradient(w, features, labels)


def generate_ls_task(
    d: int,
    devices: int,
    samples_per_device: int,
    noise_std: float,
    seed: int = 0,
    test_samples: int = 1000,
) -> tuple[SyntheticLSTask, FederatedPartition]:
    """Generate a synthetic least-squares task and its device partition.

    Features are drawn as uniformly random directions with radii spread
    over a range (so the second-moment spectrum is not degenerate), then
    centered empirically and rescaled so the largest norm is exactly 1.
    The ground truth ``w_star`` is a uniformly random unit vector, so
    signal magnitude is comparable across seeds and dimensions. Labels
    are <w_star, x> plus independent Gaussian noise of standard deviation
    ``noise_std``. Everything is deterministic given ``seed``.

    The first ``devices * samples_per_device`` rows are the train split,
    and device k holds its k-th contiguous block of ``samples_per_device``
    rows; the rest are the test split. All rows are read-only.
    ``noise_std`` is a finite real of at least 0 (an int or numpy real
    too), used as a float. ``d``, ``devices``, ``samples_per_device`` and
    ``test_samples`` are ints or numpy integers of at least 1, used as
    ints, so a narrow integer cannot wrap the row count; ``seed`` is one of
    at least 0. There must be at least d train
    rows, else the pooled optimum is not unique; this is checked before
    anything is drawn, so a huge d fails before its d x d Gram is built.
    """
    noise_std = _real(noise_std, "noise_std must be finite and nonnegative")
    message = "d, devices, samples_per_device and test_samples must be positive integers"
    d, devices, samples_per_device, test_samples = (
        _count(v, message) for v in (d, devices, samples_per_device, test_samples)
    )
    seed = _count(seed, "seed must be a nonnegative integer", least=0)
    n_train = devices * samples_per_device
    if n_train < d:
        raise ValueError("devices * samples_per_device must be at least d")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7A5C]))
    n = n_train + test_samples

    phi = _bounded_features(rng, n, d)

    direction = rng.standard_normal(d)
    w_star = direction / np.linalg.norm(direction)
    labels = phi @ w_star
    if noise_std > 0.0:
        labels = labels + noise_std * rng.standard_normal(n)
    phi.flags.writeable = False
    labels.flags.writeable = False

    train_x, train_y = phi[:n_train], labels[:n_train]
    partition = FederatedPartition(
        train_x.reshape(devices, samples_per_device, d),
        train_y.reshape(devices, samples_per_device),
    )
    test_x, test_y = phi[n_train:], labels[n_train:]
    splits = ((train_x, train_y), (test_x, test_y))
    grams = np.stack([_gram(x) for x, _ in splits])
    optimum = _solve_normal_equations(grams[0], train_x, train_y)
    task = SyntheticLSTask(
        d=d,
        w_star=w_star,
        optimum=optimum,
        train_features=train_x,
        train_labels=train_y,
        test_features=test_x,
        test_labels=test_y,
        optimum_losses=np.array([least_squares_loss(optimum, x, y) for x, y in splits]),
        optimum_gradients=np.stack([least_squares_gradient(optimum, x, y) for x, y in splits]),
        grams=grams,
    )
    return task, partition
