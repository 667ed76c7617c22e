"""End-to-end tests for the command line driver, run in process."""

from __future__ import annotations

import csv
import json
import os
import warnings

import pytest

from fedgm.cli import (
    DEFAULT_CONFIG,
    SWEEP_CSV_COLUMNS,
    main,
    merge_config,
    validate_config,
    write_summary_json,
)
from fedgm.cli import UsageError
from fedgm.fl_core import TRACE_CSV_COLUMNS


def write_config(tmp_path, **blocks):
    """Small fast experiment config with per-test overrides."""
    cfg = {
        "task": {
            "d": 3,
            "devices": 8,
            "samples_per_device": 12,
            "test_samples": 20,
        },
        "algorithm": {"batch_size": 6, "epochs": 1, "gamma0": 0.5, "decay": 1.0,
                      "decay_every": 1},
        "run": {"rounds": 5, "seeds": [0, 1], "outdir": str(tmp_path / "runs"),
                "devices_per_round": 5},
    }
    for block, entries in blocks.items():
        cfg.setdefault(block, {}).update(entries)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def write_points(tmp_path, text, name="points.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


EQUILATERAL = "0,0,1\n2,0,1\n1,1.7320508075688772,1\n"


class TestConfigHandling:
    def test_merge_rejects_unknown_block(self):
        with pytest.raises(UsageError):
            merge_config({"tasks": {}})

    def test_merge_rejects_unknown_key_with_dotted_path(self):
        with pytest.raises(UsageError, match=r"task\.dd"):
            merge_config({"task": {"dd": 5}})

    def test_merge_keeps_defaults_for_missing_keys(self):
        merged = merge_config({"task": {"d": 4}})
        assert merged["task"]["d"] == 4
        assert merged["task"]["devices"] == DEFAULT_CONFIG["task"]["devices"]

    def test_validate_rejects_rho_without_attack(self):
        merged = merge_config({"corruption": {"rho": 0.2}})
        with pytest.raises(UsageError):
            validate_config(merged)

    def test_validate_rejects_oversized_batch(self):
        merged = merge_config(
            {"task": {"samples_per_device": 5}, "algorithm": {"batch_size": 6}}
        )
        with pytest.raises(UsageError):
            validate_config(merged)

    def test_missing_config_file_is_exit_1(self, tmp_path, capsys):
        rc = main(["simulate", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_json_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        rc = main(["simulate", str(path)])
        assert rc == 1
        assert "JSON" in capsys.readouterr().err


class TestGmSolve:
    def test_equilateral_converges_exit_0(self, tmp_path, capsys):
        path = write_points(tmp_path, EQUILATERAL)
        rc = main(["gm-solve", path])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["converged_by"] == "relative_improvement"
        assert payload["z"] == pytest.approx([1.0, 0.5773502691896257], abs=1e-9)

    def test_budget_exhaustion_exit_2(self, tmp_path, capsys):
        path = write_points(tmp_path, "0,1\n1,1\n5,1\n")
        rc = main(["gm-solve", path, "--budget", "1", "--rel-tol", "0"])
        assert rc == 2
        assert json.loads(capsys.readouterr().out)["converged_by"] == "budget"

    def test_reference_comparison(self, tmp_path, capsys):
        path = write_points(tmp_path, "0,0.7\n1,0.3\n")
        rc = main(["gm-solve", path, "--reference", "--budget", "100"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reference_objective"] == pytest.approx(0.3, abs=1e-6)
        assert abs(payload["relative_gap"]) < 1e-5

    def test_output_file(self, tmp_path, capsys):
        path = write_points(tmp_path, EQUILATERAL)
        out_path = tmp_path / "result.json"
        rc = main(["gm-solve", path, "--output", str(out_path)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out_path.read_text())["iterations"] >= 1

    @pytest.mark.parametrize(
        "content,fragment",
        [
            ("0,0,1\nfoo,0,1\n", "line 2"),
            ("0,0,1\n1,1\n", "line 2"),
            ("5\n", "line 1"),
            ("0,0,0\n", "weight"),
            ("", "no points"),
        ],
    )
    def test_malformed_input_exit_1_with_diagnostics(
        self, tmp_path, capsys, content, fragment
    ):
        path = write_points(tmp_path, content)
        rc = main(["gm-solve", path])
        assert rc == 1
        assert fragment in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["gm-solve", str(tmp_path / "absent.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--nu", "--rel-tol"])
    def test_non_finite_solver_option_exit_1(self, tmp_path, capsys, flag):
        path = write_points(tmp_path, EQUILATERAL)
        assert main(["gm-solve", path, flag, "nan"]) == 1
        assert "must be finite" in capsys.readouterr().err

    def test_overflowing_distances_exit_1(self, tmp_path, capsys):
        # A tenth of the weight near 1e200: every distance overflows, so no
        # reweighted average exists and no NaN result may be written.
        rows = [f"{k},{-k},1" for k in range(9)] + ["1e200,1e200,1"]
        path = write_points(tmp_path, "\n".join(rows) + "\n")
        with pytest.warns(RuntimeWarning, match="overflow"):
            rc = main(["gm-solve", path])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "error:" in captured.err

    def test_weights_whose_sum_overflows_exit_1(self, tmp_path, capsys):
        # Each weight is finite; only their sum overflows, which must be
        # reported as such and not as an overflow warning from numpy.
        path = write_points(tmp_path, "0,0,1e308\n1,0,1e308\n0,1,1e308\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["gm-solve", path])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "weights must have a finite sum" in captured.err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestSimulate:
    def test_writes_trace_per_seed_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["simulate", cfg])
        assert rc == 0
        outdir = tmp_path / "runs"
        assert (outdir / "0.csv").exists() and (outdir / "1.csv").exists()
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["schema_version"] == 1
        assert [row["seed"] for row in summary["per_seed"]] == [0, 1]
        agg = summary["aggregate"]["final_train_loss"]
        finals = [row["final_train_loss"] for row in summary["per_seed"]]
        assert agg["min"] == pytest.approx(min(finals))
        assert agg["max"] == pytest.approx(max(finals))
        assert agg["mean"] == pytest.approx(sum(finals) / len(finals))

    def test_trace_csv_shape(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["simulate", cfg])
        with open(tmp_path / "runs" / "0.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == TRACE_CSV_COLUMNS
        assert len(rows) == 1 + 5
        assert [r[0] for r in rows[1:]] == [str(t) for t in range(5)]

    def test_zero_rounds_header_only(self, tmp_path):
        cfg = write_config(tmp_path, run={"rounds": 0, "seeds": [0]})
        assert main(["simulate", cfg]) == 0
        content = (tmp_path / "runs" / "0.csv").read_text()
        header = "round,train_loss,test_loss,dist_to_opt_sq,oracle_calls,corrupted_selected"
        assert content == header + "\n"
        summary = json.loads((tmp_path / "runs" / "summary.json").read_text())
        assert summary["per_seed"][0]["final_train_loss"] is None
        assert summary["aggregate"]["final_train_loss"] is None

    def test_diverged_summary_is_strict_json(self, tmp_path):
        # Without the halt, an omniscient attack on the mean drives every
        # final loss to inf, which strict JSON cannot hold.
        cfg = write_config(
            tmp_path,
            corruption={"kind": "omniscient", "rho": 0.25},
            algorithm={"gamma0": 30.0},
            run={"rounds": 150, "seeds": [0], "halt_on_divergence": False},
        )
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(["simulate", cfg]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        text = (tmp_path / "runs" / "summary.json").read_text()
        row = json.loads(text, parse_constant=reject)["per_seed"][0]
        assert row["diverged"] is True
        assert row["rounds_completed"] == 150
        for key in ("final_train_loss", "final_test_loss", "final_dist_to_opt_sq"):
            assert row[key] is None

    def test_reruns_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["simulate", cfg])
        first = {
            name: (tmp_path / "runs" / name).read_bytes()
            for name in ("0.csv", "1.csv", "summary.json")
        }
        main(["simulate", cfg])
        for name, blob in first.items():
            assert (tmp_path / "runs" / name).read_bytes() == blob

    def test_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out2 = str(tmp_path / "other")
        rc = main(["simulate", cfg, "--rounds", "2", "--seeds", "5", "--outdir", out2])
        assert rc == 0
        assert os.path.exists(os.path.join(out2, "5.csv"))
        summary = json.loads(open(os.path.join(out2, "summary.json")).read())
        assert summary["config"]["run"]["rounds"] == 2
        assert summary["config"]["run"]["seeds"] == [5]

    def test_bad_seed_override_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["simulate", cfg, "--seeds", "1,x"]) == 1
        assert "seeds" in capsys.readouterr().err

    def test_repeated_seed_exit_1_before_output(self, tmp_path, capsys):
        # A repeated seed would overwrite its trace CSV and count twice in the summary.
        cfg = write_config(tmp_path, run={"rounds": 3, "seeds": [0, 0, 1]})
        assert main(["simulate", cfg]) == 1
        assert "run.seeds" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "runs")

    @pytest.mark.parametrize(
        "algorithm",
        [
            {"nu": "1e-6"},
            {"gamma0": "18"},
            {"gamma0": float("nan")},
            {"budget": 2.7},
            {"batch_size": 10.5},
            {"epochs": True},
            {"aggregator": "median_of_means", "groups": 20},
        ],
        ids=["string_nu", "string_gamma0", "nan_gamma0", "real_budget", "real_batch_size",
             "bool_epochs", "too_many_groups"],
    )
    def test_bad_algorithm_value_exit_1_before_output(self, tmp_path, capsys, algorithm):
        cfg = write_config(tmp_path, algorithm=algorithm)
        assert main(["simulate", cfg]) == 1
        assert "error:" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "runs")

    @pytest.mark.parametrize(
        "blocks",
        [
            {"task": {"devices": True}, "run": {"devices_per_round": 1}},
            {"run": {"rounds": True}},
            {"run": {"seeds": [True]}},
            {"task": {"noise_std": float("nan")}},
            {"task": {"feature_bound": float("inf")}},
            {"task": {"noise_std": True}},
            {"run": {"outdir": 5}},
            {"run": {"seeds": [-1]}},
        ],
        ids=["bool_devices", "bool_rounds", "bool_seed", "nan_noise_std", "inf_feature_bound",
             "bool_noise_std", "int_outdir", "negative_seed"],
    )
    def test_bad_task_or_run_value_exit_1_before_output(
        self, tmp_path, capsys, monkeypatch, blocks
    ):
        monkeypatch.chdir(tmp_path)  # a relative outdir such as 5 would land here
        cfg = write_config(tmp_path, **blocks)
        assert main(["simulate", cfg]) == 1
        assert "error:" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["config.json"]

    def test_values_take_the_type_of_their_default(self, tmp_path):
        cfg = write_config(tmp_path, task={"noise_std": 0, "d": 10.0})
        assert main(["simulate", cfg, "--rounds", "1", "--seeds", "0"]) == 0
        task = json.loads((tmp_path / "runs" / "summary.json").read_text())["config"]["task"]
        assert repr((task["noise_std"], task["d"])) == "(0.0, 10)"

    def test_summary_that_cannot_be_json_leaves_no_file(self, tmp_path):
        path = tmp_path / "summary.json"
        with pytest.raises(ValueError):
            write_summary_json(str(path), {"task": {"noise_std": float("nan")}}, [])
        assert not path.exists()

    def test_integral_and_real_algorithm_values_are_coerced(self, tmp_path):
        cfg = write_config(tmp_path, algorithm={"budget": 3.0, "gamma0": 1, "decay": 1})
        assert main(["simulate", cfg, "--rounds", "2", "--seeds", "0"]) == 0
        summary = json.loads(open(tmp_path / "runs" / "summary.json").read())
        algorithm = summary["config"]["algorithm"]
        assert (algorithm["budget"], algorithm["gamma0"], algorithm["decay"]) == (3, 1.0, 1.0)
        assert isinstance(algorithm["budget"], int) and isinstance(algorithm["gamma0"], float)

    def test_masked_oracle_matches_plain(self, tmp_path):
        traces = {}
        for mode in ("plain", "masked"):
            outdir = tmp_path / mode
            cfg = write_config(
                tmp_path,
                algorithm={"aggregator": "rfa"},
                run={"seeds": [0], "outdir": str(outdir), "oracle_mode": mode},
            )
            assert main(["simulate", cfg]) == 0
            with open(outdir / "0.csv", newline="") as fh:
                traces[mode] = list(csv.DictReader(fh))
        assert len(traces["masked"]) == len(traces["plain"]) == 5
        for plain, masked in zip(traces["plain"], traces["masked"]):
            assert masked["oracle_calls"] == plain["oracle_calls"]
            for column in ("train_loss", "test_loss", "dist_to_opt_sq"):
                assert float(masked[column]) == pytest.approx(
                    float(plain[column]), rel=1e-12, abs=0.0
                )

    def test_omniscient_mean_marked_diverged(self, tmp_path):
        cfg = write_config(
            tmp_path,
            task={"d": 10, "devices": 100, "samples_per_device": 50,
                  "test_samples": 100},
            corruption={"kind": "omniscient", "rho": 0.25},
            algorithm={"batch_size": 10, "epochs": 3, "gamma0": 30.0},
            run={"rounds": 8, "seeds": [0], "devices_per_round": 10},
        )
        assert main(["simulate", cfg]) == 0
        summary = json.loads((tmp_path / "runs" / "summary.json").read_text())
        assert summary["per_seed"][0]["diverged"] is True
        assert summary["diverged_seeds"] == 1
        assert summary["per_seed"][0]["rounds_completed"] < 8


class TestSweep:
    def test_rho_axis_long_csv(self, tmp_path):
        cfg = write_config(tmp_path, corruption={"kind": "static_data", "rho": 0.1})
        rc = main(["sweep", cfg, "--axis", "rho", "--values", "0,0.2", "--rounds", "3"])
        assert rc == 0
        with open(tmp_path / "runs" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert tuple(rows[0].keys()) == SWEEP_CSV_COLUMNS
        assert len(rows) == 2 * 2
        assert {r["value"] for r in rows} == {"0", "0.2"}
        assert all(r["axis"] == "rho" for r in rows)

    def test_empty_values_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["sweep", cfg, "--axis", "rho", "--values", ""])
        assert rc == 1
        assert "values" in capsys.readouterr().err

    def test_bad_rho_value_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["sweep", cfg, "--axis", "rho", "--values", "0,abc"])
        assert rc == 1

    def test_positive_rho_requires_attack_kind(self, tmp_path):
        cfg = write_config(tmp_path)
        rc = main(["sweep", cfg, "--axis", "rho", "--values", "0.1"])
        assert rc == 1

    @pytest.mark.parametrize(
        "axis,values", [("aggregator", "rfa,bogus"), ("rho", "0,nan")]
    )
    def test_bad_later_value_runs_nothing(self, tmp_path, capsys, axis, values, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a seed ran before every sweep point was validated")

        monkeypatch.setattr("fedgm.cli.run_one_seed", fail)
        cfg = write_config(tmp_path)
        assert main(["sweep", cfg, "--axis", axis, "--values", values]) == 1
        assert "error:" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "runs")

    def test_repeated_seed_exit_1_before_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["sweep", cfg, "--axis", "rho", "--values", "0", "--seeds", "1,0,1"])
        assert rc == 1
        assert "run.seeds" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "runs")

    def test_single_value_matches_simulate(self, tmp_path):
        cfg = write_config(tmp_path, run={"seeds": [3]})
        assert main(["simulate", cfg, "--outdir", str(tmp_path / "sim")]) == 0
        assert (
            main(
                ["sweep", cfg, "--axis", "rho", "--values", "0",
                 "--outdir", str(tmp_path / "sw")]
            )
            == 0
        )
        summary = json.loads((tmp_path / "sim" / "summary.json").read_text())
        with open(tmp_path / "sw" / "sweep.csv", newline="") as fh:
            row = list(csv.DictReader(fh))[0]
        assert float(row["final_train_loss"]) == summary["per_seed"][0]["final_train_loss"]
        assert float(row["final_test_loss"]) == summary["per_seed"][0]["final_test_loss"]
        assert row["seed"] == "3"

    def test_rfa_weakly_dominates_mean_under_attack(self, tmp_path):
        path = tmp_path / "attack.json"
        path.write_text(
            json.dumps(
                {
                    "corruption": {"kind": "omniscient", "rho": 0.25},
                    "run": {"seeds": [0, 1], "outdir": str(tmp_path / "runs")},
                }
            ),
            encoding="utf-8",
        )
        assert main(["sweep", str(path), "--axis", "aggregator",
                     "--values", "mean,rfa"]) == 0
        with open(tmp_path / "runs" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        finals = {(r["value"], r["seed"]): float(r["final_train_loss"]) for r in rows}
        for seed in ("0", "1"):
            assert finals[("rfa", seed)] <= finals[("mean", seed)]


class TestReport:
    def test_empty_directory_exit_1(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path)])
        assert rc == 1
        assert "no runs found" in capsys.readouterr().out

    def test_summarizes_runs(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["simulate", cfg])
        capsys.readouterr()
        rc = main(["report", str(tmp_path / "runs")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "median_final_loss" in out
        lines = [l for l in out.splitlines() if l and not l.startswith(("run", "-"))]
        assert len(lines) == 1
        fields = lines[0].split()
        assert fields[1] == "2"
        assert fields[3] == "5"  # mean aggregation: one call per round, 5 rounds
        assert fields[4] == "0"

    def test_groups_subdirectories(self, tmp_path, capsys):
        for sub in ("a", "b"):
            cfg = write_config(
                tmp_path, run={"outdir": str(tmp_path / "grid" / sub), "seeds": [0]}
            )
            main(["simulate", cfg])
        capsys.readouterr()
        rc = main(["report", str(tmp_path / "grid")])
        out = capsys.readouterr().out
        assert rc == 0
        rows = [l for l in out.splitlines() if l and not l.startswith(("run", "-"))]
        assert len(rows) == 2

    def test_nan_final_ranks_as_diverged_whatever_the_seed_order(self, tmp_path, capsys):
        # The same finals {1, nan, 2}, held by different seeds in each directory.
        header = "round,train_loss,test_loss,dist_to_opt_sq,oracle_calls,corrupted_selected\n"
        for sub, finals in (("a", ("1", "nan", "2")), ("b", ("nan", "1", "2"))):
            rundir = tmp_path / "grid" / sub
            rundir.mkdir(parents=True)
            for seed, loss in enumerate(finals):
                text = header + f"0,{loss},{loss},0.5,1,0\n"
                (rundir / f"{seed}.csv").write_text(text, encoding="utf-8")
        assert main(["report", str(tmp_path / "grid")]) == 0
        out = capsys.readouterr().out
        rows = [l.split() for l in out.splitlines() if l and not l.startswith(("run", "-"))]
        assert [row[0] for row in rows] == ["a", "b"]
        assert rows[0][1:] == rows[1][1:] == ["3", "2", "1", "1"]

    def test_rejects_foreign_csv_columns(self, tmp_path, capsys):
        rundir = tmp_path / "runs"
        rundir.mkdir()
        (rundir / "0.csv").write_text("a,b\n1,2\n", encoding="utf-8")
        rc = main(["report", str(rundir)])
        assert rc == 1
        assert "unexpected columns" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        import subprocess
        import sys

        path = write_points(tmp_path, EQUILATERAL)
        proc = subprocess.run(
            [sys.executable, "-m", "fedgm.cli", "gm-solve", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["iterations"] >= 1

    def test_import_does_not_load_scipy(self):
        import subprocess
        import sys

        # scipy is only needed by brute_force_gm and generate_logistic_task.
        code = "import sys, fedgm, fedgm.cli; assert 'scipy' not in sys.modules"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_missing_subcommand_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_flag_exit_1(self, tmp_path):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", cfg, "--frobnicate"])
        assert exc.value.code == 1
