"""The federated round loop, with pluggable robust aggregation.

Each round samples a subset of devices uniformly without replacement,
broadcasts the model, runs a faithful local update on every selected
device (on whatever data that device holds, poisoned or not), then
aggregates the returned models through a secure-average oracle. The
devices are the rows of the partition's stacked (K, n, d) features and
(K, n) labels. Every device holds n samples, so each of the m selected
models weighs 1/m. ``run_federated`` says how the corruption model acts
on a run and how each round is scored and stops. Local updates read
features and labels in place at the round's m selected ids, device i's
row j at flattened row j + n * i of both, and draw from one generator per
run: each round draws the sample indices of every selected device as one
call's worth of the stream. How a device picks its samples never reaches
the server, so one stream models i.i.d. local sampling.
``local_update_sgd`` and ``_smallest_keys`` say how a minibatch is drawn
and picked, and ``_local_steps`` how rows are gathered and each step is
taken. The aggregators are the weighted mean, the smoothed-Weiszfeld
geometric median ("rfa"), median-of-means and the one-step baseline
"sgd_step"; ``AggregatorSpec`` and ``aggregate`` say what each computes
and what it costs in oracle calls. Doubling local steps is a
``TailAveragedSGD`` step schedule; ``run_rfa_doubling`` is a preset of
``run_federated``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .corruption import CorruptionSpec, omniscient_updates, poison_adaptive, poison_static, realize
from .geomed import WeightedPointSet, smoothed_weiszfeld
from .secure_avg import SecureAverageOracle, _count, _real, _store

# Both assume the unit feature scale of ``tasks``, every feature norm at most 1: the
# train loss that marks divergence, and the smoothing radius of every aggregation solve.
DIVERGENCE_LOSS = 1e12
NU = 1e-6
# Most bytes of rows per local-step block: 800 KB steps ran faster one at a time, 256 KB slower.
_GATHER_BYTES = 2**20
# Most rows a packed minibatch sort takes: 53 key bits and 11 row bits fill a uint64.
_PACKED_ROWS = 2**11

AGGREGATOR_KINDS = ("mean", "rfa", "median_of_means", "sgd_step")


@dataclass(frozen=True)
class LrSchedule:
    """Piecewise-constant schedule gamma_t = gamma0 * decay^(t // decay_every).

    ``gamma0`` is a finite real of at least 0 and ``decay`` one in (0, 1],
    ints and numpy reals included, each stored as a float; so the rate
    never grows, and every rate is a float in [0, gamma0]. ``decay_every``
    is an integer (numpy's too, stored as int) of at least 1.
    """

    gamma0: float
    decay: float = 1.0
    decay_every: int = 1

    def __post_init__(self) -> None:
        message = "need finite gamma0 >= 0 and decay in (0, 1]"
        _store(self, _real, message, "gamma0")
        _store(self, _real, message, "decay", least=math.ulp(0.0), most=1.0)
        _store(self, _count, "decay_every must be an integer >= 1", "decay_every")

    def gamma_at(self, t: int) -> float:
        """The rate of round t, in [0, gamma0]; t is an int or numpy integer >= 0."""
        t = _count(t, "round t must be a nonnegative integer", least=0)
        return self.gamma0 * self.decay ** (t // self.decay_every)


@dataclass(frozen=True)
class LocalSGD:
    """Minibatch SGD: ``steps(n)`` steps on n samples; kind "sgd_step" runs one.

    ``batch_size`` and ``epochs`` are integers (numpy's too, stored as int),
    each at least 1.
    """

    batch_size: int
    epochs: int = 1

    def __post_init__(self) -> None:
        _store(self, _count, "batch_size and epochs must be integers >= 1", "batch_size", "epochs")

    def steps(self, n: int) -> int:
        """ceil(n * epochs / batch_size): ``epochs`` passes over n samples."""
        return math.ceil(n * self.epochs / self.batch_size)


@dataclass(frozen=True)
class TailAveragedSGD:
    """Single-sample SGD averaging the last half of its iterates.

    Round t runs ``steps_at(t)`` steps: ``steps`` every round when
    constant, ``steps * 2^t`` when doubling. ``steps`` is an integer
    (numpy's too, stored as int) of at least 2.
    """

    steps: int
    schedule: str = "constant"

    def __post_init__(self) -> None:
        if self.schedule not in ("doubling", "constant"):
            raise ValueError("schedule must be 'doubling' or 'constant'")
        _store(self, _count, "steps must be an integer >= 2", "steps", least=2)

    def steps_at(self, t: int) -> int:
        """The step count of round t; t is an int or numpy integer >= 0."""
        t = _count(t, "round t must be a nonnegative integer", least=0)
        return self.steps * 2**t if self.schedule == "doubling" else self.steps


@dataclass(frozen=True)
class AggregatorSpec:
    """Which aggregator a round uses and its knobs.

    ``budget`` and ``groups`` are integers (numpy's too, stored as int),
    each at least 1. ``rel_tol`` is a finite real of at least 0 (an int or
    numpy real too, stored as a float).
    ``budget`` and ``rel_tol`` control the smoothed Weiszfeld solve for
    kind "rfa", which smooths at the fixed radius ``NU``. Kind
    "median_of_means" needs ``groups`` >= 2, since one group's median is
    its mean; it costs ``groups`` oracle calls and solves server side,
    also at ``NU``, with ``max(budget, 50)`` steps and rel_tol
    ``min(rel_tol, 1e-9)``. Kind "sgd_step" aggregates by the weighted
    mean, and ``run_federated`` gives its ``LocalSGD`` pass one step.
    """

    kind: str = "mean"
    budget: int = 3
    rel_tol: float = 1e-6
    groups: int = 1

    def __post_init__(self) -> None:
        if self.kind not in AGGREGATOR_KINDS:
            raise ValueError(f"aggregator kind must be one of {AGGREGATOR_KINDS}")
        _store(self, _real, "rel_tol must be finite and nonnegative", "rel_tol")
        _store(self, _count, "need integer budget and groups >= 1", "budget", "groups")
        if self.kind == "median_of_means" and self.groups < 2:
            raise ValueError("median_of_means needs groups >= 2")


@dataclass(frozen=True)
class RoundConfig:
    """Everything one federated round needs besides the data.

    ``devices_per_round`` is an integer (numpy's too, stored as int) of at
    least 1.
    """

    devices_per_round: int
    local: LocalSGD | TailAveragedSGD
    lr: LrSchedule
    aggregator: AggregatorSpec = field(default_factory=AggregatorSpec)

    def __post_init__(self) -> None:
        _store(self, _count, "devices_per_round must be an integer >= 1", "devices_per_round")
        if self.aggregator.kind == "sgd_step" and not isinstance(self.local, LocalSGD):
            raise ValueError("sgd_step requires a LocalSGD spec for its batch size")
        agg = self.aggregator
        if agg.kind == "median_of_means" and agg.groups > self.devices_per_round:
            raise ValueError("median_of_means needs groups <= devices_per_round")


@dataclass
class RoundTrace:
    """Metrics recorded after a round's aggregation, on uncorrupted data.

    Every field but ``selected`` is a trace CSV column, in field order.
    """

    round: int
    train_loss: float
    test_loss: float
    dist_to_opt_sq: float
    oracle_calls: int
    corrupted_selected: int
    selected: tuple[int, ...]

    def csv_row(self) -> list:
        return [getattr(self, name) for name in TRACE_CSV_COLUMNS]


TRACE_CSV_COLUMNS = tuple(f.name for f in fields(RoundTrace) if f.name != "selected")


def sample_devices(total: int, per_round: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly sample ``per_round`` distinct device ids; sorted for stable order.

    ``total`` is an int or numpy integer of at least 1, and ``per_round``
    one in [1, ``total``]; both are used as ints.
    """
    total = _count(total, "total must be a positive integer")
    per_round = _count(per_round, "per_round must be an integer in [1, total]", most=total)
    return np.sort(rng.choice(total, size=per_round, replace=False))


def _shard_rows(features: np.ndarray, selected: np.ndarray, labels: np.ndarray) -> int:
    """Rows per shard n, after checking (K, n, d) features, (K, n) labels and m integer ids."""
    if (
        features.ndim != 3
        or labels.shape != features.shape[:2]
        or selected.ndim != 1
        or selected.dtype.kind not in "iu"
        or not len(selected)
        or not 0 <= selected.min() <= selected.max() < len(features)
    ):
        raise ValueError("need m >= 1 integer ids of stacked (n, d) shards with (K, n) labels")
    return features.shape[1]


def _local_steps(
    task,
    features: np.ndarray,
    selected: np.ndarray,
    labels: np.ndarray,
    w0: np.ndarray,
    gamma: float,
    idx: np.ndarray,
    tail: int,
) -> np.ndarray:
    """SGD from w0 on m shards at once, one stacked (m, p) update per step.

    Shard k is ``features[selected[k]]`` (n, d) of the (K, n, d) population,
    with labels ``labels[selected[k]]`` (n,) of the (K, n) labels, and
    ``idx`` (steps, m, b) says which rows each step uses: step s uses rows
    ``idx[s, k]`` of shard k. Rows are gathered with ``np.take`` (as the
    ndarray method) a block of max(1, min(n // b, _GATHER_BYTES // S))
    steps at a time, where S = m * b * d * itemsize is one step's rows, and
    a block's rows are freed before the next is gathered. So a round holds
    at most one copy of its shards, and at most 1 MiB of rows unless one
    step's rows alone are more.
    A one-row step (b = 1) is the least-squares step computed here, the
    row times gamma times its residual, with no ``task.gradient`` call. It
    copies the scaled residual column into every column of an (m, p) buffer
    and multiplies that buffer by the rows in place: the copy is a plain
    strided assignment and a same-shape product takes numpy's simple loop,
    while the broadcasting product of the (m, p) rows and the (m, 1) column
    runs numpy's general iterator, whose setup costs more than the m * p
    products at these sizes. The products, and so the bits, are the same.
    A minibatch step (b > 1) calls ``task.gradient``. ``gamma`` is checked
    once per call by ``secure_avg._real``, before any step: anything but a
    finite real of at least 0 (an int or numpy real too) raises
    ``ValueError``. Both steps scale by gamma's Python float as a float64
    0-d array, made once per call: numpy multiplies by an array operand
    faster than by a Python scalar, which takes its slower scalar promotion
    path, and the product has the same bits either way (a float32 rate is
    widened exactly). Only a minibatch step reads ``task``, so the
    tail-averaged rule passes None. Returns the (m, p) average of the last
    ``tail`` iterates (the final iterate when tail = 1).
    """
    m, n = len(selected), labels.shape[1]
    b = idx.shape[-1]
    # Row j of shard k is row j + n * selected[k] of the flattened features and labels
    # alike (in np.intp, so narrow ids cannot wrap); a one-row step gathers (m, d) rows.
    base = n * selected.astype(np.intp)[:, None]
    if b == 1:
        idx, base = idx[..., 0], base[:, 0]
    features, labels = features.reshape(-1, features.shape[-1]), labels.reshape(-1)
    step_bytes = m * b * features.shape[-1] * features.itemsize
    block, first_tail = max(1, min(n // b, _GATHER_BYTES // step_bytes)), len(idx) - tail
    g = np.asarray(_real(gamma, "gamma must be finite and nonnegative"), dtype=float)
    w = np.empty((m, len(w0)))
    w[...] = w0
    acc = np.zeros_like(w)
    # The one-row step's residuals, as (m,) and as an (m, 1) column, and its (m, p) step,
    # which first holds each row's residual in every column.
    r, step = np.empty(m), np.empty_like(w)
    rc = r[:, None]
    for start in range(0, len(idx), block):
        rows = idx[start : start + block] + base
        x_rows, y_rows = features.take(rows, axis=0), labels.take(rows)
        for s, (x, y) in enumerate(zip(x_rows, y_rows), start):
            if b == 1:
                np.vecdot(x, w, out=r)
                r -= y
                r *= g
                step[...] = rc
                step *= x
                w -= step
            else:
                w -= task.gradient(w, x, y) * g
            if s >= first_tail:
                acc += w
        # Free this block's rows before the next block is gathered.
        del rows, x_rows, y_rows, x, y
    return acc / tail


def _smallest_keys(keys: np.ndarray, b: int) -> np.ndarray:
    """The positions of the b smallest keys of each last-axis row, smallest first.

    ``keys`` are numpy ``random()`` doubles, each a multiple of 2^-53 in
    [0, 1), so ``keys * 2**53`` is an exact integer below 2^53. Each is cast
    to ``uint64``, shifted left by s = max(1, (n - 1).bit_length()) bits,
    with its position j ORed into the low s bits, and the words are sorted:
    numpy's value sort is vectorized where ``argsort`` is not. The first b
    words, masked, are the positions. Distinct keys give ``argsort``'s
    positions in its order; equal keys give the lower position first. The
    shift and the OR act on the integers, so a key finer than 2^-53 is
    truncated and cannot reach the position bits. For n > ``_PACKED_ROWS``
    the position does not fit beside 53 key bits, and ``argsort`` is used.
    """
    n = keys.shape[-1]
    if n > _PACKED_ROWS:
        return keys.argsort(axis=-1)[..., :b]
    shift = max(1, (n - 1).bit_length())
    words = np.multiply(keys, 2.0**53, out=np.empty(keys.shape, np.uint64), casting="unsafe")
    words <<= shift
    words |= np.arange(n, dtype=np.uint64)
    words.sort(axis=-1)
    return (words[..., :b] & ((1 << shift) - 1)).astype(np.intp)


def local_update_sgd(
    task,
    features: np.ndarray,
    selected: np.ndarray,
    labels: np.ndarray,
    rng: np.random.Generator,
    w0: np.ndarray,
    gamma: float,
    batch_size: int,
    steps: int,
) -> np.ndarray:
    """Minibatch SGD from w0 on each of m shards, batched across shards.

    ``features`` (K, n, d) and ``labels`` (K, n) stack the population's
    shards, read in place; shard k is ``features[selected[k]]``, with labels
    ``labels[selected[k]]``. Each shard runs ``steps`` steps
    (``LocalSGD.steps(n)``, or 1 for "sgd_step"); every minibatch is a fresh
    uniform subset (without replacement) of the shard: the ``batch_size``
    smallest of n uniform keys, smallest first. ``rng.random`` draws the
    (steps, m, n) keys of every shard for the round, shard k's in column
    k, a block of max(1, ``_GATHER_BYTES`` // (m * n * 8)) steps at a
    time, so beyond its (steps, m, b) indices the draw holds one block of
    keys and one of packed words. Consecutive draws continue one stream,
    so the rows and the generator's end state are those of one call.
    ``_smallest_keys`` picks each block's rows: up to n = 2048 by one sort
    of packed (key, row) words, which gives ``argsort``'s rows for distinct
    keys and the lower row first for equal ones (a tie has probability
    about n^2 * 2^-54 per shard and step), and by ``argsort`` above 2048
    rows. ``batch_size`` (in [1, n]) and ``steps`` (at least 1) are ints or
    numpy integers, used as ints. ``gamma`` is a finite real of at least 0,
    used as a float. Returns the (m, p) final iterates, row k for shard k;
    gamma = 0 returns w0 in every row.
    """
    n = _shard_rows(features, selected, labels)
    batch_size = _count(batch_size, "batch_size must be an integer in [1, n]", most=n)
    steps = _count(steps, "steps must be a positive integer")
    m = len(selected)
    idx = np.empty((steps, m, batch_size), dtype=np.intp)
    block = max(1, _GATHER_BYTES // (m * n * 8))
    for start in range(0, steps, block):
        part = idx[start : start + block]
        part[...] = _smallest_keys(rng.random((len(part), m, n)), batch_size)
    return _local_steps(task, features, selected, labels, w0, gamma, idx, tail=1)


def local_update_tail_avg_sgd(
    features: np.ndarray,
    selected: np.ndarray,
    labels: np.ndarray,
    rng: np.random.Generator,
    w0: np.ndarray,
    gamma: float,
    steps: int,
) -> np.ndarray:
    """Single-sample SGD on each of m shards, batched across shards.

    Takes its shards and ``gamma`` like ``local_update_sgd``, and no task:
    every step is the one-row least-squares step. Each shard performs
    ``steps`` steps on samples drawn i.i.d. (with replacement), then
    averages iterates ceil(steps/2)+1 through steps. ``steps`` is an int
    or numpy integer of at least 2, used as an int, so a narrow integer
    cannot wrap the tail's length. One call on ``rng``
    draws the (steps, m) row numbers of every shard for the round; shard
    k's are column k. Returns the (m, p) averages, row k for shard k.
    """
    steps = _count(steps, "steps must be an integer >= 2", least=2)
    n = _shard_rows(features, selected, labels)
    idx = rng.integers(0, n, size=(steps, len(selected)))
    tail = steps - (steps + 1) // 2
    return _local_steps(None, features, selected, labels, w0, gamma, idx[:, :, None], tail)


def aggregate(
    updates: np.ndarray,
    weights: np.ndarray,
    spec: AggregatorSpec,
    oracle: SecureAverageOracle,
    z0: np.ndarray,
) -> np.ndarray:
    """Combine per-device models according to the aggregator spec.

    ``z0`` starts the "rfa" solve; the other kinds ignore it.
    ``run_federated`` passes the broadcast model, which the server already
    holds, so the start costs no call. Oracle cost:
    "mean" and "sgd_step" one call, "rfa" one call per Weiszfeld step, so
    1 to ``budget``, and "median_of_means" exactly ``groups`` calls, with
    the geometric median of the group means solved server side. A single
    update row, or a set in which no row is entirely finite, goes through
    one oracle call under every kind; the latter averages to a non-finite
    model, which ends a ``run_federated`` run.
    """
    updates = np.asarray(updates, dtype=float)
    weights = np.asarray(weights, dtype=float).ravel()
    m = updates.shape[0]
    if spec.kind == "median_of_means" and spec.groups > m:
        raise ValueError("more groups than devices in the round")
    if spec.kind in ("mean", "sgd_step") or m == 1 or not np.isfinite(updates).all(1).any():
        return oracle.average(updates, weights)
    if spec.kind == "rfa":
        point_set = WeightedPointSet(updates, weights)
        return smoothed_weiszfeld(point_set, NU, spec.budget, spec.rel_tol, z0, oracle).z
    # median_of_means
    chunks = np.array_split(np.arange(m), spec.groups)
    means = [oracle.average(updates[chunk], weights[chunk]) for chunk in chunks]
    group_weights = [weights[chunk].sum() for chunk in chunks]
    point_set = WeightedPointSet(np.asarray(means), np.asarray(group_weights))
    return smoothed_weiszfeld(point_set, NU, max(spec.budget, 50), min(spec.rel_tol, 1e-9)).z


def run_federated(
    task,
    partition,
    corruption: CorruptionSpec,
    config: RoundConfig,
    rounds: int,
    seed: int = 0,
    oracle: SecureAverageOracle | None = None,
) -> list[RoundTrace]:
    """Simulate the federated loop from w = 0 for the given number of rounds.

    ``realize`` marks the corrupted devices once, and ``partition`` is never
    written. Local steps read the selected shards' features and labels in
    place, and draw their samples from one generator per run, apart from
    the one that selects devices. The features are always
    ``partition.device_features``. Either data attack copies the labels
    once per run: static poisoning negates the corrupted devices' labels in
    that copy before round 0, and adaptive poisoning relabels each round's
    selected corrupted devices in it against the broadcast model.
    The omniscient attack replaces the corrupted updates before aggregation.
    After every round, one ``task.loss(w)`` call gives the train and test
    losses on uncorrupted data, from the task's stored quadratics, and the
    squared distance to the task's pooled optimum is recorded with them. Each
    round's row is appended first, and the run stops as soon as
    ``trace_diverged`` holds, so the first diverged round ends the trace.
    ``rounds`` and ``seed`` are ints or numpy integers of at least 0;
    rounds = 0 returns an empty trace. Before round 0 it checks that
    ``devices_per_round`` is at most the population and a ``LocalSGD``
    ``batch_size`` at most the shard size, so a run of 0 rounds rejects them too.
    """
    rounds = _count(rounds, "rounds must be a nonnegative integer", least=0)
    seed = _count(seed, "seed must be a nonnegative integer", least=0)
    if config.devices_per_round > partition.devices:
        raise ValueError("devices_per_round exceeds the population")
    local = config.local
    if isinstance(local, LocalSGD) and local.batch_size > partition.device_labels.shape[1]:
        raise ValueError("batch_size exceeds the shard size")
    oracle = oracle if oracle is not None else SecureAverageOracle("plain")
    # Device selection and the devices' own draws are separate streams.
    server_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5E7]))
    device_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xFED]))
    corrupted = realize(corruption, partition.devices, fallback_seed=seed)
    # Local steps read these shards in place; a data attack copies the labels once per run.
    features, labels = partition.device_features, partition.device_labels
    if corruption.kind in ("static_data", "adaptive_data"):
        labels = labels.copy()
    if corruption.kind == "static_data":
        labels[corrupted] = poison_static(labels[corrupted])

    # Equal shards: every selected device weighs n / (m * n) = 1/m.
    round_weights = np.full(config.devices_per_round, 1.0 / config.devices_per_round)
    w = np.zeros_like(task.optimum)
    traces: list[RoundTrace] = []
    for t in range(rounds):
        selected = sample_devices(partition.devices, config.devices_per_round, server_rng)
        gamma = config.lr.gamma_at(t)

        corrupted_mask = corrupted[selected]
        if corruption.kind == "adaptive_data":
            # One per-run copy is exact: a corrupted device's labels are read only
            # in a round that selects it, and that round rewrites them first.
            ids = selected[corrupted_mask]
            labels[ids] = poison_adaptive(features[ids], w)

        if isinstance(local, LocalSGD):
            steps = 1 if config.aggregator.kind == "sgd_step" else local.steps(labels.shape[1])
            updates = local_update_sgd(
                task, features, selected, labels, device_rng, w, gamma, local.batch_size, steps
            )
        else:
            updates = local_update_tail_avg_sgd(
                features, selected, labels, device_rng, w, gamma, local.steps_at(t)
            )

        if corruption.kind == "omniscient" and corrupted_mask.any():
            updates = omniscient_updates(updates, round_weights, corrupted_mask)

        calls_before = oracle.call_count
        w = aggregate(updates, round_weights, config.aggregator, oracle, z0=w)
        round_calls = oracle.call_count - calls_before

        train_loss, test_loss = task.loss(w)
        traces.append(
            RoundTrace(
                round=t,
                train_loss=train_loss,
                test_loss=test_loss,
                dist_to_opt_sq=float(np.sum((w - task.optimum) ** 2)),
                oracle_calls=round_calls,
                corrupted_selected=int(corrupted_mask.sum()),
                selected=tuple(selected.tolist()),
            )
        )
        if trace_diverged(traces):
            break
    return traces


def trace_diverged(traces: list[RoundTrace]) -> bool:
    """A run is diverged when its last train loss is non-finite or above ``DIVERGENCE_LOSS``."""
    if not traces:
        return False
    loss = traces[-1].train_loss
    return not math.isfinite(loss) or loss > DIVERGENCE_LOSS


def run_rfa_doubling(
    task,
    partition,
    corruption: CorruptionSpec,
    devices_per_round: int,
    base_steps: int,
    rounds: int,
    seed: int = 0,
    schedule: str = "doubling",
    budget: int = 200,
    oracle: SecureAverageOracle | None = None,
) -> list[RoundTrace]:
    """Geometric-median aggregation with tail-averaged local SGD, steps doubling.

    A preset of ``run_federated``: round t runs ``base_steps * 2^t``
    single-sample SGD steps per selected device (constant ``base_steps``
    when schedule="constant") at the rate 1 / (2 R^2) = 0.5 of unit-norm
    features, then aggregates with a geometric-median solve at rel_tol 1e-13.
    """
    config = RoundConfig(
        devices_per_round=devices_per_round,
        local=TailAveragedSGD(base_steps, schedule),
        lr=LrSchedule(gamma0=0.5),
        aggregator=AggregatorSpec(kind="rfa", budget=budget, rel_tol=1e-13),
    )
    return run_federated(task, partition, corruption, config, rounds, seed, oracle)
