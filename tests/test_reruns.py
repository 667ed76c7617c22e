"""Reruns in separate processes, under different hash seeds, write identical files.

The other tests compare reruns inside one process only. Here two fresh
Python processes, with PYTHONHASHSEED 1 and 2, each run the same
``fedgm`` invocations in a directory of their own, and the two output
trees must match file by file and be readable by ``fedgm report``.

- Each corruption kind takes its own path: the omniscient attack rewrites
  the round's corrupted updates, static poisoning negates the corrupted
  labels once per run, and adaptive poisoning relabels the round's
  selected corrupted devices. No kind writes features.
- The batch-1 config takes the one-row step that ``fl_core`` computes
  itself, without ``task.gradient``. At the default gamma0 of 18 it would
  diverge in round 2, so it runs at 1.
- The median_of_means config covers the last aggregator, and the
  one-device rfa config sends each round's single model through the oracle.
- The sgd_step run puts the one-step baseline's per-round traces in the diff.
- Each sweep point is a simulate run in a directory of its own. The
  aggregator sweep runs on the median_of_means config, whose 3 groups only
  that aggregator reads, so each of its points with a twin simulate run
  (rfa: omniscient, median_of_means: mom, sgd_step: sgd-step) must write
  that run's trace files byte for byte.
- In the diverging config every local update of round 0 overflows, so rfa
  averages that round, and the run must exit 0 with a diverged trace that
  stops after that round.
- The 3001 x 200 gm-solve instance (every fifth point shifted, so the solve
  takes several steps) spans several blocks of the solver's distance pass.
  3001 is not a multiple of the block's rows, so the diff covers a pass
  whose last block is shifted back to end at the last row.

The tree is also held to the committed one under ``tests/golden``, so a
change that alters any output bit fails here. That tree was written on the
platform its ``fingerprint.json`` names. On a matching platform the files
must be byte-identical. Elsewhere, another BLAS core or numpy build may move
the last bits: every float must lie within ``RTOL`` of the golden value, and
every other value (integers, strings, booleans, nulls), every key and every
row must match exactly. The test records which mode ran, and the end of the
pytest run prints it.

Tolerance mode also meets real drift: a third process runs the same
invocations with ``OPENBLAS_CORETYPE`` naming another OpenBLAS core, and its
tree must pass the golden comparison in tolerance mode. That check is
skipped when the core in use cannot be read, or when the switch left every
output byte as it was. An intended output change regenerates the tree with

    PYTHONPATH=src python tests/test_reruns.py
"""

from __future__ import annotations

import csv
import ctypes
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import fedgm
from fedgm.cli import main

ATTACK = {"kind": "omniscient", "rho": 0.25}
MASKED_RUN = {"rounds": 5, "seeds": [0, 1], "oracle_mode": "masked"}
GOLDEN = Path(__file__).parent / "golden"
# With OPENBLAS_CORETYPE set to Haswell, Zen, SandyBridge or Katmai instead
# of the SkylakeX core the tree was written with, 40 of the 42 files change,
# each float by at most 1.7e-14 relative, and no other value changes.
# test_golden_tolerance_mode_on_another_blas_core checks one such core.
# A last-bit change in the distances (another BLAS core, or more than one
# BLAS thread when d > 10^4) can move a rel_tol stop by one Weiszfeld step.
# Integer fields must match exactly, so such a moved stop reads as a
# mismatch in this mode, not as drift within RTOL.
RTOL = 1e-10

CONFIGS = {
    "rerun": {"corruption": ATTACK, "algorithm": {"aggregator": "rfa"}, "run": MASKED_RUN},
    "rerun-batch1": {
        "corruption": ATTACK,
        "algorithm": {"aggregator": "rfa", "batch_size": 1, "epochs": 1, "gamma0": 1.0},
        "run": MASKED_RUN,
    },
    "rerun-mom": {
        "corruption": ATTACK,
        "algorithm": {"aggregator": "median_of_means", "groups": 3},
        "run": MASKED_RUN,
    },
    "rerun-one": {
        "corruption": ATTACK,
        "algorithm": {"aggregator": "rfa"},
        "run": {**MASKED_RUN, "devices_per_round": 1},
    },
    "rerun-diverge": {
        "algorithm": {"aggregator": "rfa", "batch_size": 1, "epochs": 10, "gamma0": 10000.0},
        "run": {"rounds": 5, "seeds": [0]},
    },
}

# Runs the argv lists given as JSON in sys.argv[1] through fedgm's main,
# in one process, and fails unless every one exits 0.
RUN_ALL = """
import json, sys
from fedgm.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit("fedgm " + " ".join(argv) + " did not exit 0")
"""


def write_inputs(tmp_path: Path) -> tuple[dict, str]:
    """The config files by name, and the gm-solve point CSV."""
    paths = {}
    for name, config in CONFIGS.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(config), encoding="utf-8")
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((3001, 200))
    pts[::5] += 2.0
    points = str(tmp_path / "rerun-points.csv")
    np.savetxt(points, np.hstack([pts, rng.uniform(0.5, 1.5, (3001, 1))]), delimiter=",")
    return paths, points


def invocations(cfg: dict, points: str) -> list[list[str]]:
    kinds = ("omniscient", "static_data", "adaptive_data")
    return [
        *(["simulate", cfg["rerun"], "--corruption", k, "--outdir", f"runs/{k}"] for k in kinds),
        ["simulate", cfg["rerun-batch1"], "--outdir", "runs/batch1"],
        ["simulate", cfg["rerun-mom"], "--outdir", "runs/mom"],
        ["simulate", cfg["rerun-one"], "--outdir", "runs/one-device"],
        ["simulate", cfg["rerun-diverge"], "--outdir", "runs/diverged"],
        ["simulate", cfg["rerun"], "--aggregator", "sgd_step", "--outdir", "runs/sgd-step"],
        ["sweep", cfg["rerun"], "--axis", "rho", "--values", "0,0.25",
         "--corruption", "omniscient", "--outdir", "runs/sweep-rho"],
        ["sweep", cfg["rerun-mom"], "--axis", "aggregator",
         "--values", "mean,rfa,median_of_means,sgd_step", "--outdir", "runs/sweep-aggregator"],
        ["gm-solve", points, "--budget", "100", "--rel-tol", "1e-9",
         "--output", "runs/gm-solve.json"],
    ]


def start(workdir: Path, argvs: str, hash_seed: str, core: str | None = None) -> subprocess.Popen:
    """Run the invocations through fedgm's main in a fresh process inside ``workdir``.

    ``core``, if given, is the OpenBLAS core the process must use.
    """
    src = str(Path(fedgm.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    workdir.mkdir()
    env = {**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": hash_seed}
    if core is not None:
        env["OPENBLAS_CORETYPE"] = core
    return subprocess.Popen(
        [sys.executable, "-c", RUN_ALL, argvs],
        cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def files_under(tree: Path) -> list[Path]:
    return sorted(p.relative_to(tree) for p in tree.rglob("*") if p.is_file())


def blas_core() -> str | None:
    """The kernel family numpy's bundled OpenBLAS chose at run time, or None if unreadable."""
    root = Path(np.__file__).parent
    for lib in (*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(handle, name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return None


def other_core() -> str | None:
    """An OpenBLAS core other than the one in use, or None if that one is unreadable."""
    core = blas_core()
    if core is None:
        return None
    return "SandyBridge" if core == "Haswell" else "Haswell"


def fingerprint() -> dict:
    return {
        "blas_core": blas_core(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def cell(token: str):
    """A CSV cell as an int, else a float, else the string itself."""
    for kind in (int, float):
        try:
            return kind(token)
        except ValueError:
            pass
    return token


def values(path: Path) -> list[tuple]:
    """(position, value) for every value in a JSON or CSV output file, in order."""
    if path.suffix == ".csv":
        with path.open(newline="", encoding="utf-8") as f:
            return [((i, j), cell(t)) for i, row in enumerate(csv.reader(f)) for j, t in enumerate(row)]
    out = []

    def walk(node, where):
        if isinstance(node, dict):
            for key, child in node.items():
                walk(child, (*where, key))
        elif isinstance(node, list):
            for i, child in enumerate(node):
                walk(child, (*where, i))
        else:
            out.append((where, node))

    walk(json.loads(path.read_text(encoding="utf-8")), ())
    return out


def relative_gap(got, want) -> float | None:
    """0 or the relative difference of two floats; None if the values do not match in kind."""
    if type(got) is not type(want):
        return None
    if not isinstance(want, float):
        return 0.0 if got == want else None
    if got == want or (math.isnan(got) and math.isnan(want)):
        return 0.0
    if not (math.isfinite(got) and math.isfinite(want)):
        return None
    return abs(got - want) / max(abs(got), abs(want))


def compare_to_golden(
    tree: Path, golden: Path = GOLDEN, have_fp: dict | None = None
) -> tuple[str, str | None]:
    """Compare an output tree with the golden one: (the mode line, the first mismatch or None).

    Bytes when the fingerprint of the platform that wrote the tree (by
    default this one) is the golden one, else floats within ``RTOL`` and
    everything else exactly.
    """
    runs = golden / "runs"
    want_fp = json.loads((golden / "fingerprint.json").read_text(encoding="utf-8"))
    have_fp = have_fp or fingerprint()
    byte_mode = have_fp == want_fp
    line = f"golden outputs: byte mode, fingerprint {have_fp}"
    if not byte_mode:
        line = f"golden outputs: tolerance mode (rtol {RTOL:g}), fingerprint {have_fp}, golden {want_fp}"
    files = files_under(runs)
    if files_under(tree) != files:
        return line, f"files {files_under(tree)} != golden {files}"
    changed = [rel for rel in files if (tree / rel).read_bytes() != (runs / rel).read_bytes()]
    if byte_mode:
        return line, f"{[str(r) for r in changed]} differ from the golden bytes" if changed else None
    worst = 0.0
    for rel in changed:
        got, want = values(tree / rel), values(runs / rel)
        if [w for w, _ in got] != [w for w, _ in want]:
            return line, f"{rel}: keys or rows differ from the golden file"
        for (where, g), (_, w) in zip(got, want):
            gap = relative_gap(g, w)
            if gap is None or gap > RTOL:
                return line, f"{rel} at {where}: {g!r} != golden {w!r}"
            worst = max(worst, gap)
    return f"{line}; {len(changed)} of {len(files)} files differ in bytes, largest relative difference {worst:.3g}", None


def assert_sweep_points_match_their_twins(tree: Path) -> None:
    """Each aggregator sweep point writes the traces of its twin simulate run, byte for byte."""
    sweep = tree / "sweep-aggregator"
    twins = {"rfa": "omniscient", "median_of_means": "mom", "sgd_step": "sgd-step"}
    assert sorted(p.name for p in sweep.iterdir()) == sorted(
        f"aggregator={value}" for value in ("mean", *twins)
    )
    for seed in (0, 1):
        mean = (sweep / "aggregator=mean" / f"{seed}.csv").read_bytes()
        for value, twin in twins.items():
            got = (sweep / f"aggregator={value}" / f"{seed}.csv").read_bytes()
            assert got == (tree / twin / f"{seed}.csv").read_bytes(), (value, seed)
            assert got != mean, (value, seed)


@pytest.fixture(scope="module")
def rerun_trees(tmp_path_factory) -> dict[str, Path]:
    """The output trees of the invocations, each run by a fresh process, all at once.

    "1" and "2" ran under PYTHONHASHSEED 1 and 2. "core" ran on
    ``other_core()``, and is absent when that is None.
    """
    tmp_path = tmp_path_factory.mktemp("reruns")
    cfg, points = write_inputs(tmp_path)
    argvs = json.dumps(invocations(cfg, points))
    procs = {h: start(tmp_path / f"rerun{h}", argvs, h) for h in ("1", "2")}
    core = other_core()
    if core is not None:
        procs["core"] = start(tmp_path / "reruncore", argvs, "1", core)
    for proc in procs.values():
        _, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err
    return {name: tmp_path / f"rerun{name}" / "runs" for name in procs}


def test_reruns_in_two_processes_write_identical_trees(rerun_trees, record_property):
    trees = [rerun_trees["1"], rerun_trees["2"]]
    files = [files_under(tree) for tree in trees]
    # 7 two-seed simulate dirs of 3 files, the one-seed diverged dir of 2,
    # 2 + 4 two-seed sweep points of 3 files and the gm-solve JSON.
    assert files[0] == files[1] and len(files[0]) == 7 * 3 + 2 + 6 * 3 + 1
    for rel in files[0]:
        assert (trees[0] / rel).read_bytes() == (trees[1] / rel).read_bytes(), rel
    diverged = json.loads((trees[0] / "diverged" / "summary.json").read_text())
    assert diverged["per_seed"][0]["diverged"] is True
    assert main(["report", str(trees[0])]) == 0
    assert_sweep_points_match_their_twins(trees[0])

    line, mismatch = compare_to_golden(trees[0])
    record_property("golden", line)
    assert mismatch is None, (
        f"{line}: {mismatch}. If the change is meant to alter outputs, regenerate "
        "the tree with: PYTHONPATH=src python tests/test_reruns.py"
    )


def test_golden_tolerance_mode_on_another_blas_core(rerun_trees, record_property):
    """Real drift from another BLAS core stays within ``RTOL`` of the golden tree."""
    if "core" not in rerun_trees:
        pytest.skip("numpy's OpenBLAS core is unreadable, so no other core can be named")
    core, tree, native = other_core(), rerun_trees["core"], rerun_trees["1"]
    if all((tree / rel).read_bytes() == (native / rel).read_bytes() for rel in files_under(native)):
        pytest.skip(f"OPENBLAS_CORETYPE={core} changed no output byte, so it took no effect")
    line, mismatch = compare_to_golden(tree, have_fp={**fingerprint(), "blas_core": core})
    record_property("golden", line)
    assert mismatch is None, f"{line}: {mismatch}"


@pytest.mark.parametrize("byte_mode", [True, False])
def test_each_golden_mode_catches_what_it_promises(tmp_path, byte_mode):
    """One ulp fails only byte mode; ten times RTOL, or a changed integer, fails both."""
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN / "runs", golden / "runs")
    fp = fingerprint() if byte_mode else {**fingerprint(), "blas_core": "another core"}
    (golden / "fingerprint.json").write_text(json.dumps(fp), encoding="utf-8")
    line, mismatch = compare_to_golden(golden / "runs", golden)
    assert mismatch is None and ("byte mode" in line) == byte_mode

    trace = Path("omniscient") / "0.csv"
    rows = list(csv.reader((golden / "runs" / trace).open(newline="", encoding="utf-8")))
    loss = float(rows[1][1])
    assert rows[0][1] == "train_loss" and rows[0][4] == "oracle_calls"
    edits = [
        (1, repr(math.nextafter(loss, math.inf)), byte_mode),
        (1, repr(loss * (1 + 10 * RTOL)), True),
        (4, str(int(rows[1][4]) + 1), True),
    ]
    for n, (column, token, caught) in enumerate(edits):
        tree = tmp_path / f"tree{n}"
        shutil.copytree(golden / "runs", tree)
        edited = [row[:] for row in rows]
        edited[1][column] = token
        with (tree / trace).open("w", newline="", encoding="utf-8") as f:
            csv.writer(f, lineterminator="\n").writerows(edited)
        assert (compare_to_golden(tree, golden)[1] is not None) == caught, token


def regenerate() -> None:
    """Rewrite tests/golden from one fresh run, with this platform's fingerprint."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, points = write_inputs(Path(tmp))
        proc = start(Path(tmp) / "rerun", json.dumps(invocations(cfg, points)), "1")
        _, err = proc.communicate(timeout=600)
        if proc.returncode != 0:
            sys.exit(err)
        shutil.rmtree(GOLDEN / "runs", ignore_errors=True)
        shutil.copytree(Path(tmp) / "rerun" / "runs", GOLDEN / "runs")
    text = json.dumps(fingerprint(), indent=2, sort_keys=True) + "\n"
    (GOLDEN / "fingerprint.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
