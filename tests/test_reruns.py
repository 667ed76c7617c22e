"""Reruns in separate processes, under different hash seeds, write identical files.

The other tests compare reruns inside one process only. Here two fresh
Python processes, with PYTHONHASHSEED 1 and 2, each run the same
``fedgm`` invocations in a directory of their own, and the two output
trees must match file by file and be readable by ``fedgm report``.

- Each corruption kind rewrites the round's corrupted rows on its own
  path: updates, features or labels.
- The batch-1 config takes the one-row gradient path. At the default
  gamma0 of 18 it would diverge in round 2, so it runs at 1.
- The median_of_means config covers the last aggregator, and the
  one-device rfa config sends each round's single model through the oracle.
- The sgd_step run puts the one-step baseline's per-round traces in the diff.
- The two sweeps add sweep.csv to the diff.
- In the diverging config every local update of round 0 overflows, so rfa
  averages that round, and the run must exit 0 with a diverged trace.
- The 3001 x 200 gm-solve instance (every fifth point shifted, so the solve
  takes several steps) spans several blocks of the solver's distance pass.
  3001 is not a multiple of the block's rows, so the diff covers a pass
  whose last block is shifted back to end at the last row.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import fedgm
from fedgm.cli import main

ATTACK = {"kind": "omniscient", "rho": 0.25}
MASKED_RUN = {"rounds": 5, "seeds": [0, 1], "oracle_mode": "masked"}

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
        ["sweep", cfg["rerun"], "--axis", "aggregator",
         "--values", "mean,rfa,median_of_means,sgd_step", "--outdir", "runs/sweep-aggregator"],
        ["gm-solve", points, "--budget", "100", "--rel-tol", "1e-9",
         "--output", "runs/gm-solve.json"],
    ]


def test_reruns_in_two_processes_write_identical_trees(tmp_path):
    cfg, points = write_inputs(tmp_path)
    argvs = json.dumps(invocations(cfg, points))
    src = str(Path(fedgm.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    procs = []
    for hash_seed in ("1", "2"):
        workdir = tmp_path / f"rerun{hash_seed}"
        workdir.mkdir()
        env = {**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": hash_seed}
        procs.append(
            subprocess.Popen(
                [sys.executable, "-c", RUN_ALL, argvs],
                cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
        )
    for proc in procs:
        _, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err

    trees = [tmp_path / f"rerun{hash_seed}" / "runs" for hash_seed in ("1", "2")]
    files = [sorted(p.relative_to(tree) for p in tree.rglob("*") if p.is_file()) for tree in trees]
    # 7 two-seed simulate dirs of 3 files, the one-seed diverged dir of 2,
    # 2 sweep.csv files and the gm-solve JSON.
    assert files[0] == files[1] and len(files[0]) == 7 * 3 + 2 + 2 + 1
    for rel in files[0]:
        assert (trees[0] / rel).read_bytes() == (trees[1] / rel).read_bytes(), rel
    diverged = json.loads((trees[0] / "diverged" / "summary.json").read_text())
    assert diverged["per_seed"][0]["diverged"] is True
    assert main(["report", str(trees[0])]) == 0
