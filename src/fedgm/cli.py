"""Command line experiment driver.

Four subcommands cover the full workflow: ``gm-solve`` runs the smoothed
Weiszfeld solver on a CSV point set, ``simulate`` runs a seeded federated
experiment from a JSON config, ``sweep`` runs one such experiment per
value of one axis (rho or aggregator), each in a subdirectory of the outdir,
and ``report`` tabulates the ``summary.json`` files of a directory tree.

Exit codes are stable: 0 success, 1 usage, validation, read or write
failure, 2 budget exhausted without meeting the relative-improvement
tolerance. ``simulate`` runs every seed before it writes, so nothing is
written unless every seed completes, and a rule the library rejects at any
seed leaves no outdir. Outputs contain no timing information, so identical
configs give byte-identical files.
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import json
import math
import os
import statistics
import sys

import numpy as np

from .corruption import CORRUPTION_KINDS, CorruptionSpec
from .fl_core import (
    AGGREGATOR_KINDS,
    TRACE_CSV_COLUMNS,
    AggregatorSpec,
    LocalSGD,
    LrSchedule,
    RoundConfig,
    RoundTrace,
    run_federated,
    trace_diverged,
)
from .geomed import WeightedPointSet, smoothed_weiszfeld
from .secure_avg import SecureAverageOracle
from .tasks import generate_ls_task

SUMMARY_SCHEMA_VERSION = 1

# Learning-rate and local-pass defaults were tuned once on the uncorrupted
# synthetic least-squares task and are frozen across corruption settings.
# The rate's halving every 50 rounds is fixed in _experiment, and the
# solver's relative tolerance and the 1000-row test set are library defaults.
# The JSON type of each default is its key's type (see _coerce), so a real
# default is written with a decimal point and an integer one without.
DEFAULT_CONFIG: dict = {
    "task": {
        "d": 10,
        "devices": 100,
        "samples_per_device": 50,
        "noise_std": 0.1,
    },
    "corruption": {
        "kind": "none",
        "rho": 0.0,
    },
    "algorithm": {
        "aggregator": "mean",
        "budget": 3,
        "groups": 1,
        "batch_size": 10,
        "epochs": 3,
        "gamma0": 18.0,
    },
    "run": {
        "rounds": 100,
        "seeds": [0, 1, 2, 3, 4],
        "outdir": "runs",
        "devices_per_round": 10,
        "oracle_mode": "plain",
    },
}

# The override flags of simulate and sweep: flag -> (config key, argparse
# choices). A flag's text is read as the type of its key's default.
OVERRIDE_FLAGS = {
    "rho": ("corruption.rho", None),
    "corruption": ("corruption.kind", CORRUPTION_KINDS),
    "aggregator": ("algorithm.aggregator", AGGREGATOR_KINDS),
    "rounds": ("run.rounds", None),
    "seeds": ("run.seeds", None),
    "outdir": ("run.outdir", None),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 (argparse override)
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def merge_config(user: dict) -> dict:
    """Overlay a user config onto the defaults, rejecting unknown keys."""
    if not isinstance(user, dict):
        raise ValueError("config root must be a JSON object")
    merged = copy.deepcopy(DEFAULT_CONFIG)
    for block, entries in user.items():
        if block not in merged:
            raise ValueError(f"unknown config block {block!r}")
        if not isinstance(entries, dict):
            raise ValueError(f"config block {block!r} must be an object")
        for key, value in entries.items():
            if key not in merged[block]:
                raise ValueError(f"unknown config key {block}.{key}")
            merged[block][key] = value
    return merged


def _coerce(name: str, value, default):
    """Return value as the JSON type of default, or raise ValueError.

    Strings must already be strings. Numbers must be finite and not
    booleans; an integer default also needs an integral value. A list
    default (the seeds) needs a nonempty list of such elements.
    """
    if isinstance(default, list):
        if not isinstance(value, list) or not value:
            raise ValueError(f"{name} must be a nonempty list")
        return [_coerce(name, item, default[0]) for item in value]
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ValueError(f"{name} must be a string")
        return value
    integral = isinstance(default, int)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and math.isfinite(value) and (not integral or float(value).is_integer())):
        raise ValueError(f"{name} must be {'an integer' if integral else 'a finite number'}")
    return int(value) if integral else float(value)


def validate_config(config: dict) -> dict:
    """Coerce a merged config to its defaults' types in place and check the rules the CLI owns.

    The CLI owns a nonempty ``run.outdir`` and distinct seeds, which name the
    trace files. ``_experiment``'s constructors check the kinds and ranges
    of their blocks. The library checks the rest (sizes, ``noise_std``,
    seeds, ``rounds``, and the task's rows against d, ``devices_per_round``
    and ``batch_size``) when a seed runs, and ``_simulate`` runs every seed
    before it writes anything.
    """
    try:
        for block, defaults in DEFAULT_CONFIG.items():
            for key, default in defaults.items():
                config[block][key] = _coerce(f"{block}.{key}", config[block][key], default)
        run = config["run"]
        if not run["outdir"]:
            raise ValueError("run.outdir must not be empty")
        if len(set(run["seeds"])) < len(run["seeds"]):
            raise ValueError("run.seeds must not repeat a seed")
        _experiment(config)
    except (TypeError, KeyError, OverflowError) as exc:
        raise ValueError(f"malformed config value: {exc}") from exc
    return config


def _read_text(path: str, what: str) -> str:
    """The text of a UTF-8 file, without a leading byte-order mark.

    Line endings ``\\r\\n`` and ``\\r`` are read as ``\\n``. A file that cannot
    be opened or read raises ``ValueError("cannot read {what}: ...")``, and
    one whose bytes are not UTF-8 raises
    ``ValueError("cannot read {what}: {path}: not UTF-8: ...")``.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {what}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {what}: {path}: not UTF-8: {exc}") from exc


def _read_json(path: str, what: str):
    """The JSON value of a file that ``_read_text`` reads.

    Text that is not JSON raises ``ValueError("{path}: {what} is not JSON: ...")``.
    """
    try:
        return json.loads(_read_text(path, what))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {what} is not JSON: {exc}") from exc


def _write_json(path: str | None, payload: dict) -> None:
    """Write ``payload`` as indented, key-sorted strict JSON to ``path``, or to stdout.

    A ``path`` of None or ``""`` means stdout. The text is made before the
    file is opened, so a value that strict JSON cannot hold, such as inf or
    NaN, raises ``ValueError`` and leaves no file, whole or cut off.
    """
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def load_config(path: str) -> dict:
    """Read a JSON config file and merge it onto the defaults, unvalidated."""
    return merge_config(_read_json(path, "config file"))


def _experiment(config: dict) -> tuple[CorruptionSpec, SecureAverageOracle, RoundConfig]:
    """The corruption spec, oracle and round config of a coerced config.

    Their constructors check the kinds and ranges of their blocks, so
    ``validate_config`` calls this too and discards what it returns. They
    run in that order, and the first rule broken is the error reported.
    """
    algo, run = config["algorithm"], config["run"]
    return (
        CorruptionSpec(**config["corruption"]),
        SecureAverageOracle(run["oracle_mode"]),
        RoundConfig(
            devices_per_round=run["devices_per_round"],
            local=LocalSGD(batch_size=algo["batch_size"], epochs=algo["epochs"]),
            # The rate is the tuned gamma0, halved every 50 rounds, frozen like the defaults.
            lr=LrSchedule(algo["gamma0"], 0.5, 50),
            aggregator=AggregatorSpec(
                kind=algo["aggregator"], budget=algo["budget"], groups=algo["groups"]
            ),
        ),
    )


def run_one_seed(config: dict, seed: int) -> tuple[list[RoundTrace], SecureAverageOracle]:
    """Run one seeded federated experiment described by a validated config."""
    task, partition = generate_ls_task(**config["task"], seed=seed)
    corruption, oracle, round_config = _experiment(config)
    traces = run_federated(
        task,
        partition,
        corruption,
        round_config,
        rounds=config["run"]["rounds"],
        seed=seed,
        oracle=oracle,
    )
    return traces, oracle


def write_trace_csv(path: str, traces: list[RoundTrace]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_CSV_COLUMNS)
        for trace in traces:
            writer.writerow(trace.csv_row())


def _seed_summary(seed: int, traces: list[RoundTrace]) -> dict:
    summary = {
        "seed": seed,
        "rounds_completed": len(traces),
        "oracle_calls_total": sum(t.oracle_calls for t in traces),
        "diverged": trace_diverged(traces),
    }
    for key in ("train_loss", "test_loss", "dist_to_opt_sq"):
        value = getattr(traces[-1], key) if traces else None
        # JSON has no inf or NaN; "diverged" already records a blow-up.
        finite = value is not None and math.isfinite(value)
        summary[f"final_{key}"] = value if finite else None
    return summary


def write_summary_json(path: str, config: dict, per_seed: list[dict]) -> None:
    _write_json(
        path, {"schema_version": SUMMARY_SCHEMA_VERSION, "config": config, "per_seed": per_seed}
    )


def _split_list(text: str) -> list[str]:
    """The entries of a comma-separated flag, stripped, without empty ones."""
    return [item.strip() for item in text.split(",") if item.strip()]


def _apply_overrides(config: dict, overrides: dict) -> dict:
    """Set the key of each table flag with a text in ``overrides``, read as its default's type."""
    for flag, (dotted, _) in OVERRIDE_FLAGS.items():
        text = overrides.get(flag)
        if text is None:
            continue
        block, key = dotted.split(".")
        default = DEFAULT_CONFIG[block][key]
        try:
            if isinstance(default, list):
                value = [type(default[0])(item) for item in _split_list(text)]
            else:
                value = type(default)(text)
        except ValueError as exc:
            raise ValueError(f"bad --{flag} value {text!r}: {exc}") from exc
        config[block][key] = value
    return config


def _simulate(config: dict) -> None:
    """Run every seed of a validated config, then write its traces and summary.json to run.outdir.

    Nothing is written, and the outdir is not made, unless every seed completes.
    """
    outdir = config["run"]["outdir"]
    runs = {seed: run_one_seed(config, seed)[0] for seed in config["run"]["seeds"]}
    os.makedirs(outdir, exist_ok=True)
    for seed, traces in runs.items():
        write_trace_csv(os.path.join(outdir, f"{seed}.csv"), traces)
    per_seed = [_seed_summary(seed, traces) for seed, traces in runs.items()]
    write_summary_json(os.path.join(outdir, "summary.json"), config, per_seed)
    print(f"wrote {len(per_seed)} trace file(s) and summary.json to {outdir}")


def cmd_simulate(args: argparse.Namespace) -> int:
    _simulate(validate_config(_apply_overrides(load_config(args.config), vars(args))))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if getattr(args, args.axis) is not None:
        raise ValueError(f"--{args.axis} is the sweep axis: give its values with --values")
    config = _apply_overrides(load_config(args.config), vars(args))
    raw_values = _split_list(args.values)
    if not raw_values:
        raise ValueError("sweep needs at least one --values entry")
    # A point is the config with one more override flag, --<axis> <value>.
    # Every point is validated before any seed runs, and a point writes
    # nothing unless every one of its seeds completes.
    points = [
        validate_config(_apply_overrides(copy.deepcopy(config), {args.axis: raw}))
        for raw in raw_values
    ]
    # Compared before each point gets its own outdir, so 0 and 0.0 are one point.
    for i, point in enumerate(points):
        if point in points[:i]:
            first = raw_values[points.index(point)]
            raise ValueError(f"--values {raw_values[i]!r} repeats the sweep point {first!r}")
    for raw, point in zip(raw_values, points):
        point["run"]["outdir"] = os.path.join(point["run"]["outdir"], f"{args.axis}={raw}")
        _simulate(point)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    dirpaths = [
        dirpath for dirpath, _, filenames in sorted(os.walk(args.rundir))
        if "summary.json" in filenames
    ]
    if not dirpaths:
        raise ValueError(f"no summary.json under {args.rundir}")
    # Every summary is read before anything is printed, so a rejected one prints no table.
    rows = []
    for dirpath in dirpaths:
        path = os.path.join(dirpath, "summary.json")
        label = os.path.relpath(dirpath, args.rundir)
        summary = _read_json(path, "summary file")
        try:
            if summary["schema_version"] != SUMMARY_SCHEMA_VERSION:
                raise ValueError(f"schema_version is not {SUMMARY_SCHEMA_VERSION}")
            per_seed = summary["per_seed"]
            # A null final is a diverged run: rank it as inf, above every finite final.
            finals = [
                math.inf if row["final_train_loss"] is None else row["final_train_loss"]
                for row in per_seed
                if row["rounds_completed"] > 0
            ]
            final_txt = f"{statistics.median(finals):.6g}" if finals else "-"
            calls_txt = f"{statistics.median(row['oracle_calls_total'] for row in per_seed):g}"
            diverged = sum(row["diverged"] for row in per_seed)
            rows.append((label, len(per_seed), final_txt, calls_txt, diverged))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: not a fedgm summary: {exc!r}") from exc
    width = max(len(row[0]) for row in [("run",), *rows])
    line = f"{{:<{width}}} {{:>5}} {{:>18}} {{:>13}} {{:>9}}".format
    header = line("run", "seeds", "median_final_loss", "median_calls", "diverged")
    print("\n".join([header, "-" * len(header), *(line(*row) for row in rows)]))
    return 0


def read_point_csv(path: str) -> WeightedPointSet:
    """Parse a point-set CSV: one point per row, last column its weight."""
    text = _read_text(path, "input file")
    points, weights, width = [], [], None
    for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            values = [float(cell) for cell in row]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: not numeric: {exc}") from exc
        if len(values) < 2:
            raise ValueError(f"line {lineno}: need at least one coordinate plus a weight")
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ValueError(f"line {lineno}: expected {width} columns, found {len(values)}")
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"line {lineno}: non-finite value")
        if values[-1] <= 0.0:
            raise ValueError(f"line {lineno}: weight must be positive")
        points.append(values[:-1])
        weights.append(values[-1])
    if not points:
        raise ValueError("input file holds no points")
    return WeightedPointSet(np.asarray(points), np.asarray(weights))


def cmd_gm_solve(args: argparse.Namespace) -> int:
    # An option not given is no attribute, so the solver's own default applies.
    options = {k: v for k, v in vars(args).items() if k in ("nu", "budget", "rel_tol")}
    result = smoothed_weiszfeld(read_point_csv(args.input), **options)
    _write_json(args.output, {"schema_version": SUMMARY_SCHEMA_VERSION, **result.to_json_dict()})
    return 0 if result.converged_by == "relative_improvement" else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fedgm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_gm = sub.add_parser("gm-solve", help="solve one geometric-median instance from CSV")
    p_gm.add_argument("input", help="CSV file, one point per row, last column the weight")
    for flag, kind, text in (
        ("--nu", float, "smoothing parameter"),
        ("--budget", int, "max Weiszfeld steps (the mean start adds one oracle call)"),
        ("--rel-tol", float, "relative improvement stop"),
    ):
        p_gm.add_argument(flag, type=kind, default=argparse.SUPPRESS, help=text)
    p_gm.add_argument("--output", help="write JSON here instead of stdout")
    p_gm.set_defaults(func=cmd_gm_solve)

    p_sim = sub.add_parser("simulate", help="run a seeded federated experiment")
    p_sweep = sub.add_parser("sweep", help="run simulate once per value of one axis")
    for p in (p_sim, p_sweep):
        p.add_argument("config", help="JSON config file")
    p_sweep.add_argument(
        "--axis", choices=("rho", "aggregator"), required=True, help="the override flag to vary"
    )
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated axis values, e.g. 0,0.1,0.25"
    )
    for flag, (key, choices) in OVERRIDE_FLAGS.items():
        listed = ", comma separated" if flag == "seeds" else ""
        for p in (p_sim, p_sweep):
            p.add_argument(f"--{flag}", choices=choices, help=f"override {key}{listed}")
    p_sim.set_defaults(func=cmd_simulate)
    p_sweep.set_defaults(func=cmd_sweep)

    p_rep = sub.add_parser("report", help="tabulate the summary.json files of a directory tree")
    p_rep.add_argument("rundir", help="directory tree of simulate outdirs")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
