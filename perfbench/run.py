"""fedgm benchmark: one workload per invocation, metrics as JSON on the last line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fl-attack --seed 1 --seconds 20 --trace 0

The workload's inputs are made from ``--seed``; the program is imported from
``src/`` of the same checkout. A run repeats whole rounds of operations
until ``--seconds`` have passed, checks every operation's output, and
prints the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced run (``--trace 1``). See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Named here too: arguments are parsed before numpy may be imported.
WORKLOAD_NAMES = ("fl-attack", "doubling", "masked-wide", "gm-solve")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5
# Time the import, then the calibration kernel in the same fresh process.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import fedgm; t = time.perf_counter() - t; "
    "import calibration; print(t, calibration.kernel_seconds('loop'))"
)

RSS_PROBE = "import sys, run; run.rss_probe(sys.argv[1], int(sys.argv[2]), sys.argv[3])"

now = time.perf_counter


def import_seconds() -> tuple[float, float]:
    """Time ``import fedgm`` in a fresh interpreter, as a user pays it.

    Returns the import's seconds and the calibration kernel's seconds in
    that interpreter right after the import.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=60,
    )
    raw, kernel = (float(v) for v in out.stdout.split())
    return raw, kernel


def peak_rss_mb(args, workdir: Path) -> float:
    """Peak resident memory of a fresh process that sets the workload up and
    runs each of its ops once. The benchmark's own process would also count
    its reference solves and calibration arrays, whose heap fragmentation
    moved its peak by up to 7% between runs."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    out = subprocess.run(
        [sys.executable, "-c", RSS_PROBE, args.workload, str(args.seed), str(workdir / "rss")],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.split()[-1])


def rss_probe(name: str, seed: int, workdir: str) -> None:
    """Body of the child process of ``peak_rss_mb``."""
    from workloads import WORKLOADS

    Path(workdir).mkdir()
    workload = WORKLOADS[name](Path(workdir))
    for op in workload.inputs(seed):
        with contextlib.suppress(Exception):  # the main run reports failures
            workload.run(op, None)
    # VmHWM, not ru_maxrss: after fork and exec, ru_maxrss still counts the
    # parent's resident set at the fork.
    status = Path("/proc/self/status").read_text()
    print(int(status.split("VmHWM:")[1].split()[0]) / 1024.0)


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it can be asked."""
    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def per_layer(tracer, setup_tracer, traced, untraced, n_inputs) -> dict:
    """Per traced op, from the span totals. Seconds are scaled by the median
    speed factor of the traced ops."""
    n = max(len(traced), 1)
    spans, counts = tracer.spans, tracer.counts
    scale = statistics.median(rec["scaled"] / rec["seconds"] for rec in traced)

    def span(name, i):
        return spans[name][i] * (scale if i else 1.0) / n if name in spans else 0.0

    metrics = {}
    for layer in ("fl_core.run", "fl_core.local_update", "fl_core.aggregate", "geomed.solve"):
        metrics[f"{layer}.calls"] = (span(layer, 0), "count/op")
        metrics[f"{layer}.s"] = (span(layer, 1), "s/op")
        metrics[f"{layer}.self_s"] = (span(layer, 2), "s/op")
    for layer in ("tasks.gradient", "tasks.loss", "secure_avg", "corruption.omniscient"):
        metrics[f"{layer}.calls"] = (span(layer, 0), "count/op")
        metrics[f"{layer}.s"] = (span(layer, 1), "s/op")
    setup_generate = setup_tracer.spans.get("tasks.generate", [0, 0.0])[1] * scale / n_inputs
    metrics["tasks.generate.s"] = (setup_generate + span("tasks.generate", 1), "s/op")
    metrics["geomed.iterations"] = (counts["geomed.iterations"] / n, "count/op")
    metrics["geomed.budget_stops"] = (counts["geomed.budget_stops"] / n, "count/op")
    ok = [rec for rec in traced if rec["error"] is None]
    metrics["secure_avg.traffic_units"] = (
        statistics.fmean(rec["traffic"] for rec in ok) if ok else 0.0, "units/op"
    )
    metrics["cli.config.s"] = (span("cli.config", 1), "s/op")
    metrics["cli.write.s"] = (span("cli.write", 1), "s/op")
    base = statistics.median(rec["scaled"] for rec in untraced if rec["error"] is None)
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(rec["scaled"] for rec in ok) / base - 1.0), "%"
    )
    return metrics


def print_shares(tracer, traced) -> None:
    """Self time of each layer as a share of traced op time, to stderr."""
    total = sum(rec["seconds"] for rec in traced)
    print(f"layer self time over {len(traced)} traced ops ({total:.3f} s):", file=sys.stderr)
    for name, (calls, _, self_s) in sorted(tracer.spans.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:<24} {100 * self_s / total:6.1f}%  {calls:>10} calls", file=sys.stderr)


def bench(args, workdir: Path) -> dict:
    from calibration import REFERENCE_S, ScaledClock
    from spans import Tracer, instrument
    from workloads import WORKLOADS

    raw_setup, setup = [], []
    for _ in range(SETUP_REPS):
        raw, kernel = import_seconds()
        raw_setup.append([raw])
        setup.append([raw * REFERENCE_S["loop"] / kernel])
    clock = ScaledClock(WORKLOADS[args.workload].KERNEL)
    workload = WORKLOADS[args.workload](workdir)
    setup_tracer = Tracer()
    for rep in range(SETUP_REPS):
        last = args.trace and rep == SETUP_REPS - 1
        tic = now()
        ops = workload.inputs(args.seed, setup_tracer if last else None)
        raw = now() - tic
        raw_setup[rep].append(raw)
        setup[rep].append(raw * clock.factor())
    # median import time plus median generation time
    setup_s = sum(statistics.median(part) for part in zip(*setup))

    workload.run(ops[0], None)  # warm-up: lazy imports and first-call costs
    clock.factor()

    tracer = Tracer()
    records, problems, failures, digests = [], [], Counter(), {}
    start, rounds = now(), 0
    while rounds == 0 or now() - start < args.seconds or (args.trace and rounds % 2):
        traced = bool(args.trace) and rounds % 2 == 1
        for op in ops:
            with instrument(tracer) if traced else contextlib.nullcontext():
                tic = now()
                try:
                    res, error = workload.run(op, tracer if traced else None), None
                except Exception as exc:  # counted as a failed op; the run goes on
                    res, error = None, f"{type(exc).__name__}: {exc}"
                    if f"{op.key}: {error}" not in failures:
                        traceback.print_exc(file=sys.stderr)
                seconds = now() - tic
            records.append({"traced": traced, "seconds": seconds, "error": error,
                            "scaled": seconds * clock.factor(),
                            "calls": res and res.oracle_calls, "traffic": res and res.traffic})
            if error is not None:
                failures[f"{op.key}: {error}"] += 1
            digest = res.digest() if error is None else hashlib.sha256(error.encode()).hexdigest()
            if digests.setdefault(op.key, digest) != digest:
                problems.append(f"{op.key}: output differs from its first run in this process")
            if error is None:
                problems += [f"{op.key}: {p}" for p in workload.check(op, res)]
        rounds += 1

    untraced = [rec for rec in records if not rec["traced"]]
    ok = [rec for rec in untraced if rec["error"] is None]
    print("env " + json.dumps(environment()))
    print("digest " + json.dumps(digests))
    print("unscaled " + json.dumps({
        "setup_s": sum(statistics.median(part) for part in zip(*raw_setup)),
        "op_s_p50": statistics.median(rec["seconds"] for rec in ok),
        "speed_factor_p50": statistics.median(rec["scaled"] / rec["seconds"] for rec in untraced),
    }))
    for what, count in failures.items():
        print(f"failed {count}x {what}", file=sys.stderr)
    for problem in dict.fromkeys(problems):
        print(f"CHECK FAILED {problem}", file=sys.stderr)

    if args.trace:
        traced = [rec for rec in records if rec["traced"]]
        print_shares(tracer, traced)
        metrics = per_layer(tracer, setup_tracer, traced, untraced, len(ops))
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_s_p50": (statistics.median(rec["scaled"] for rec in ok), "s"),
            "ops_per_s": (len(ok) / sum(rec["scaled"] for rec in untraced), "1/s"),
            "oracle_calls_per_op": (statistics.median(rec["calls"] for rec in ok), "count"),
            "traffic_units_per_op": (statistics.median(rec["traffic"] for rec in ok), "units"),
            "peak_rss_mb": (peak_rss_mb(args, workdir), "MB"),
        }
    return {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fedgm" / "__init__.py").is_file():
        print(f"perfbench: no fedgm package under {SRC}", file=sys.stderr)
        return 2
    # One thread drives the load; BLAS must not add its own.
    os.environ.update({var: "1" for var in BLAS_ENV})
    sys.path.insert(0, str(SRC))
    import fedgm

    if Path(fedgm.__file__).resolve().parent != (SRC / "fedgm").resolve():
        print(f"perfbench: fedgm imported from {fedgm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = HERE / "_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        result = bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
