"""The four benchmark workloads.

Each workload turns ``--seed`` into one round of operations (``inputs``),
runs one operation through fedgm's public API (``run``) and checks its
output against computations made here (``check``). A run repeats whole
rounds, so every run attempts the same mix of operations.

Entry points the workloads depend on: ``fedgm.cli.main`` (the ``fedgm
simulate`` path, with ``run_one_seed`` and ``generate_ls_task`` looked up in
``fedgm.cli``), ``run_rfa_doubling``, ``run_federated``,
``smoothed_weiszfeld``, ``WeightedPointSet``, ``generate_ls_task`` and
``SecureAverageOracle`` with its ``average``, ``call_count`` and
``bytes_modeled``.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from spans import Tracer, TracedOracle, TracedTask, patched

from fedgm import (
    AggregatorSpec,
    CorruptionSpec,
    LocalSGD,
    LrSchedule,
    RoundConfig,
    SecureAverageOracle,
    WeightedPointSet,
    cli,
    run_federated,
    run_rfa_doubling,
    smoothed_weiszfeld,
)
from fedgm.tasks import generate_ls_task


@dataclass
class Op:
    """One operation: ``key`` names it within a round; ``data`` is its input."""

    key: str
    seed: int
    data: dict = field(default_factory=dict)


@dataclass
class Result:
    """What one operation produced: deterministic ``rows`` plus oracle counters."""

    rows: object
    oracle_calls: int
    traffic: int
    extra: object = None

    def digest(self) -> str:
        return hashlib.sha256(repr(self.rows).encode()).hexdigest()


def op_seeds(seed: int, count: int) -> list[int]:
    return [1000 * seed + j for j in range(count)]


def trace_rows(traces) -> list[tuple]:
    return [
        (t.train_loss, t.test_loss, t.dist_to_opt_sq, t.oracle_calls, t.selected, t.corrupted_selected)
        for t in traces
    ]


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def _generator(tracer: Tracer | None):
    return tracer.wrap("tasks.generate", generate_ls_task) if tracer else generate_ls_task


def _oracle(oracle, tracer: Tracer | None):
    return TracedOracle(oracle, tracer) if tracer else oracle


class Workload:
    """Shared state: a scratch directory and references cached per op key,
    computed on an op's first check and outside every timed span."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self._ref: dict[str, object] = {}


class FlAttack(Workload):
    """``fedgm simulate`` on the default config, omniscient attack, rfa."""

    name = "fl-attack"
    KERNEL = "sgd"  # calibration kernel with the op's bottleneck
    SEEDS_PER_ROUND = 4
    ROUNDS = 100
    BUDGET = 3
    USER_CONFIG = {
        "corruption": {"kind": "omniscient", "rho": 0.25},
        "algorithm": {"aggregator": "rfa", "budget": BUDGET},
        "run": {"oracle_mode": "plain", "rounds": ROUNDS},
    }

    def inputs(self, seed: int, tracer: Tracer | None = None) -> list[Op]:
        ops = []
        for j, s in enumerate(op_seeds(seed, self.SEEDS_PER_ROUND)):
            outdir = self.workdir / f"fl-attack-{j}"
            config = copy.deepcopy(self.USER_CONFIG)
            config["run"].update({"seeds": [s], "outdir": str(outdir)})
            path = self.workdir / f"fl-attack-{j}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            ops.append(Op(f"seed{s}", s, {"config": path, "outdir": outdir}))
        return ops

    def run(self, op: Op, tracer: Tracer | None) -> Result:
        seen = {}
        run_one_seed, generate = cli.run_one_seed, cli.generate_ls_task

        def recording_run(*args, **kwargs):
            seen["run"] = run_one_seed(*args, **kwargs)
            return seen["run"]

        def recording_generate(*args, **kwargs):
            seen["task"] = generate(*args, **kwargs)
            return seen["task"]

        with patched(
            (cli, "run_one_seed", recording_run), (cli, "generate_ls_task", recording_generate)
        ), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", str(op.data["config"])])
        if code != 0:
            raise RuntimeError(f"fedgm simulate exited with {code}")
        traces, oracle = seen["run"]
        csv_path = op.data["outdir"] / f"{op.seed}.csv"
        return Result(
            trace_rows(traces),
            oracle.call_count,
            oracle.bytes_modeled,
            {"task": seen["task"][0], "csv": csv_path.read_bytes()},
        )

    def check(self, op: Op, res: Result) -> list[str]:
        task = res.extra["task"]
        if op.key not in self._ref:
            self._ref[op.key] = checks.least_squares_optimum(
                task.train_features, task.train_labels
            )[1]
        problems = checks.check_fl_attack(
            [r[0] for r in res.rows], [r[1] for r in res.rows], self.ROUNDS, self._ref[op.key]
        )
        problems += checks.check_accounting(
            [r[3] for r in res.rows], 2, self.BUDGET + 1, res.oracle_calls, res.traffic, 10, 10
        )
        written = list(csv.reader(io.StringIO(res.extra["csv"].decode())))[1:]
        if [[float(v) for v in row[1:4]] for row in written] != [list(r[:3]) for r in res.rows]:
            problems.append("trace CSV written by simulate differs from the returned traces")
        return problems


class Doubling(Workload):
    """Noiseless tail-averaged SGD with doubling local steps (criterion 8)."""

    name = "doubling"
    KERNEL = "loop"  # calibration kernel with the op's bottleneck
    SEEDS_PER_ROUND = 4
    # Every seed tried (0-49) first reaches dist^2 <= 1e-10 in round 12.
    ROUNDS = 12
    BUDGET = 200

    def inputs(self, seed: int, tracer: Tracer | None = None) -> list[Op]:
        generate = _generator(tracer)
        ops = []
        for s in op_seeds(seed, self.SEEDS_PER_ROUND):
            task, partition = generate(
                d=40, devices=30, samples_per_device=120, noise_std=0.0, seed=s, test_samples=100
            )
            ops.append(Op(f"seed{s}", s, {"task": task, "partition": partition}))
        return ops

    def run(self, op: Op, tracer: Tracer | None) -> Result:
        oracle = SecureAverageOracle("plain")
        task = TracedTask(op.data["task"], tracer) if tracer else op.data["task"]
        with _span(tracer, "fl_core.run"):
            traces = run_rfa_doubling(
                task,
                op.data["partition"],
                CorruptionSpec(),
                devices_per_round=10,
                base_steps=2,
                rounds=self.ROUNDS,
                seed=op.seed,
                budget=self.BUDGET,
                oracle=_oracle(oracle, tracer),
            )
        return Result(trace_rows(traces), oracle.call_count, oracle.bytes_modeled)

    def check(self, op: Op, res: Result) -> list[str]:
        task = op.data["task"]
        problems = checks.check_doubling(
            [r[2] for r in res.rows],
            float(np.sum(task.optimum**2)),
            res.rows[-1][0] if res.rows else float("inf"),
            task.optimum,
            task.train_features,
            task.train_labels,
        )
        return problems + checks.check_accounting(
            [r[3] for r in res.rows], 2, self.BUDGET + 1, res.oracle_calls, res.traffic, 10, 40
        )


class MaskedWide(Workload):
    """Wide rounds (d=100, 100 devices) through the masked oracle."""

    name = "masked-wide"
    KERNEL = "masks"  # calibration kernel with the op's bottleneck
    # Seeds differ by a call or two per op (a round can stop before the
    # budget); four per round keep the median op steady.
    SEEDS_PER_ROUND = 4
    ROUNDS = 6
    BUDGET = 3
    CONFIG = RoundConfig(
        devices_per_round=100,
        local=LocalSGD(batch_size=10, epochs=1),
        lr=LrSchedule(gamma0=50.0),
        aggregator=AggregatorSpec(kind="rfa", budget=BUDGET),
    )

    def inputs(self, seed: int, tracer: Tracer | None = None) -> list[Op]:
        generate = _generator(tracer)
        ops = []
        for s in op_seeds(seed, self.SEEDS_PER_ROUND):
            task, partition = generate(
                d=100, devices=200, samples_per_device=20, noise_std=0.1, seed=s, test_samples=1000
            )
            ops.append(Op(f"seed{s}", s, {"task": task, "partition": partition}))
        return ops

    def _simulate(self, op: Op, task, oracle):
        return run_federated(
            task,
            op.data["partition"],
            CorruptionSpec(kind="omniscient", rho=0.25, seed=op.seed),
            self.CONFIG,
            rounds=self.ROUNDS,
            seed=op.seed,
            oracle=oracle,
        )

    def run(self, op: Op, tracer: Tracer | None) -> Result:
        oracle = SecureAverageOracle("masked", seed=op.seed)
        task = TracedTask(op.data["task"], tracer) if tracer else op.data["task"]
        with _span(tracer, "fl_core.run"):
            traces = self._simulate(op, task, _oracle(oracle, tracer))
        return Result(trace_rows(traces), oracle.call_count, oracle.bytes_modeled)

    def check(self, op: Op, res: Result) -> list[str]:
        if op.key not in self._ref:
            plain = self._simulate(op, op.data["task"], SecureAverageOracle("plain"))
            self._ref[op.key] = trace_rows(plain)
        problems = checks.check_masked(res.rows, self._ref[op.key])
        if len(res.rows) != self.ROUNDS:
            problems.append(f"{len(res.rows)} of {self.ROUNDS} rounds completed")
        return problems + checks.check_accounting(
            [r[3] for r in res.rows], 2, self.BUDGET + 1, res.oracle_calls, res.traffic, 100, 100
        )


def _clustered_points(rng: np.random.Generator, m: int, d: int):
    """Unit Gaussian cloud plus a tight cluster 20 away holding ~20% of the weight."""
    far = m // 5
    center = rng.standard_normal(d)
    center *= 20.0 / np.linalg.norm(center)
    points = np.vstack(
        [rng.standard_normal((m - far, d)), center + 0.5 * rng.standard_normal((far, d))]
    )
    return points, rng.uniform(0.5, 1.5, size=m)


def _huge_points():
    """10% of the weight at finite coordinates near 1e200; independent of --seed."""
    rng = np.random.default_rng(0xB16)
    m, d, far = 10_000, 100, 1_000
    points = np.vstack(
        [
            rng.standard_normal((m - far, d)),
            1e200 * (1.0 + 0.01 * rng.standard_normal((far, d))),
        ]
    )
    return points, np.ones(m), m - far


class GmSolve(Workload):
    """Direct smoothed-Weiszfeld solves through the plain oracle."""

    name = "gm-solve"
    KERNEL = "stream"  # calibration kernel with the op's bottleneck
    # Six m=10^4, d=100 and three m=d=10^3 instances from --seed, then the
    # fixed huge-coordinate instance: one op in ten.
    SHAPES = [(10_000, 100), (1_000, 1_000), (10_000, 100)] * 3
    BUDGET = 100
    REL_TOL = 1e-9

    def inputs(self, seed: int, tracer: Tracer | None = None) -> list[Op]:
        del tracer
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x6E0]))
        ops = []
        for i, (m, d) in enumerate(self.SHAPES):
            points, weights = _clustered_points(rng, m, d)
            ops.append(
                Op(f"gm{i}-{m}x{d}", seed, {"points": points, "weights": weights,
                                            "set": WeightedPointSet(points, weights)})
            )
        points, weights, honest = _huge_points()
        ops.append(
            Op("huge", seed, {"points": points, "weights": weights, "honest": honest,
                              "set": WeightedPointSet(points, weights)})
        )
        return ops

    def run(self, op: Op, tracer: Tracer | None) -> Result:
        oracle = SecureAverageOracle("plain")
        solve = tracer.traced_solver(smoothed_weiszfeld) if tracer else smoothed_weiszfeld
        result = solve(
            op.data["set"], nu=1e-6, budget=self.BUDGET, rel_tol=self.REL_TOL,
            oracle=_oracle(oracle, tracer),
        )
        return Result(result.z.tolist(), oracle.call_count, oracle.bytes_modeled, result)

    def check(self, op: Op, res: Result) -> list[str]:
        points, weights = op.data["points"], op.data["weights"]
        z = np.asarray(res.rows)
        if op.key == "huge":
            if op.key not in self._ref:
                honest = op.data["honest"]
                z_h, _ = checks.gm_reference(points[:honest], weights[:honest])
                r = float(np.linalg.norm(points[:honest] - z_h, axis=1).max())
                theta = float(weights[honest:].sum() / weights.sum())
                # eps = r: any point whose objective gap is at the honest
                # points' own scale must stay within the bound.
                self._ref[op.key] = (z_h, checks.displacement_bound(theta, r, r))
            return checks.check_gm_corrupted(z, *self._ref[op.key])
        if op.key not in self._ref:
            self._ref[op.key] = checks.gm_reference(points, weights)
        m, d = points.shape
        return checks.check_gm(
            z, res.extra.g_value, points, weights, self._ref[op.key][1]
        ) + checks.check_accounting(
            [res.extra.oracle_calls], 2, self.BUDGET + 1, res.oracle_calls, res.traffic, m, d
        )


WORKLOADS = {w.name: w for w in (FlAttack, Doubling, MaskedWide, GmSolve)}
