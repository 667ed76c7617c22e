"""End-to-end tests for the command line driver, run in process."""

from __future__ import annotations

import contextlib
import copy
import csv
import json
import os
import re
import warnings
from pathlib import Path

import pytest

from fedgm.cli import (
    DEFAULT_CONFIG,
    main,
    merge_config,
    read_point_csv,
    run_one_seed,
    validate_config,
    write_summary_json,
)
from fedgm.corruption import CorruptionSpec
from fedgm.fl_core import TRACE_CSV_COLUMNS, LocalSGD, LrSchedule, RoundConfig, run_federated
from fedgm.geomed import smoothed_weiszfeld
from fedgm.tasks import generate_ls_task


def write_config(tmp_path, **blocks):
    """Small fast experiment config with per-test overrides."""
    cfg = {
        "task": {
            "d": 3,
            "devices": 8,
            "samples_per_device": 12,
        },
        "algorithm": {"batch_size": 6, "epochs": 1, "gamma0": 0.5},
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


def seed_summary(seed, final):
    """A summary.json per_seed row of one completed round; a None final is diverged."""
    return {
        "seed": seed,
        "rounds_completed": 1,
        "oracle_calls_total": 1,
        "diverged": final is None,
        "final_train_loss": final,
        "final_test_loss": final,
        "final_dist_to_opt_sq": 0.5,
    }


EQUILATERAL = "0,0,1\n2,0,1\n1,1.7320508075688772,1\n"


class TestConfigHandling:
    def test_merge_rejects_unknown_block(self):
        with pytest.raises(ValueError):
            merge_config({"tasks": {}})

    def test_merge_rejects_unknown_key_with_dotted_path(self):
        with pytest.raises(ValueError, match=r"task\.dd"):
            merge_config({"task": {"dd": 5}})

    def test_merge_keeps_defaults_for_missing_keys(self):
        merged = merge_config({"task": {"d": 4}})
        assert merged["task"]["d"] == 4
        assert merged["task"]["devices"] == DEFAULT_CONFIG["task"]["devices"]

    def test_validate_rejects_rho_without_attack(self):
        merged = merge_config({"corruption": {"rho": 0.2}})
        with pytest.raises(ValueError):
            validate_config(merged)

    def test_validate_rejects_oversized_batch(self, tmp_path, capsys):
        # run_federated states the rule, and checks it before round 0, so
        # simulate rejects the batch before any output, at 0 rounds too.
        for rounds in (0, 2):
            cfg = write_config(
                tmp_path,
                task={"samples_per_device": 5},
                algorithm={"batch_size": 6},
                run={"rounds": rounds},
            )
            assert main(["simulate", cfg]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: batch_size exceeds the shard size\n"
            assert not os.path.exists(tmp_path / "runs")
        task, partition = generate_ls_task(3, 8, 5, 0.1)
        config = RoundConfig(5, LocalSGD(batch_size=6), LrSchedule(0.5))
        with pytest.raises(ValueError, match="^batch_size exceeds the shard size$"):
            run_federated(task, partition, CorruptionSpec(), config, rounds=0)

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

    def test_config_with_a_byte_order_mark_is_read(self, tmp_path):
        cfg = Path(write_config(tmp_path, run={"rounds": 1, "seeds": [0]}))
        cfg.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
        assert main(["simulate", str(cfg)]) == 0
        assert (tmp_path / "runs" / "summary.json").exists()

    def test_readme_config_block_is_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"### Config file\n.*?```json\n(.*?)```", readme, re.DOTALL)
        documented = json.loads(block.group(1))
        # Comparing dumps also compares each value's JSON type: 18.0 is not 18.
        assert json.dumps(documented, sort_keys=True) == json.dumps(DEFAULT_CONFIG, sort_keys=True)


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

    def test_budget_counts_steps_not_the_mean_start(self, tmp_path, capsys):
        path = write_points(tmp_path, "0,0,1\n4,0,1\n0,3,1\n5,5,1\n")
        rc = main(["gm-solve", path, "--budget", "3", "--rel-tol", "0"])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle_calls"] == payload["iterations"] + 1
        assert payload["iterations"] <= 3

    def test_options_not_given_take_the_solver_defaults(self, tmp_path):
        # gm-solve passes the solver only the options given, so its defaults
        # are smoothed_weiszfeld's, and writing them out changes no byte.
        path = write_points(tmp_path, "0,0,1\n4,0,1\n0,3,1\n5,5,1\n")
        payload = {"schema_version": 1, **smoothed_weiszfeld(read_point_csv(path)).to_json_dict()}
        expected = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
        out = tmp_path / "result.json"
        for options in ([], ["--nu", "1e-6", "--budget", "50", "--rel-tol", "1e-6"]):
            assert main(["gm-solve", path, *options, "--output", str(out)]) == 0
            assert out.read_bytes() == expected.encode("utf-8")

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
            ("0,0,1\nnan,0,1\n", "line 2: non-finite value"),
        ],
    )
    def test_malformed_input_exit_1_with_diagnostics(
        self, tmp_path, capsys, content, fragment
    ):
        path = write_points(tmp_path, content)
        rc = main(["gm-solve", path])
        assert rc == 1
        assert fragment in capsys.readouterr().err

    def test_blank_rows_are_skipped(self, tmp_path, capsys):
        rows = EQUILATERAL.splitlines()
        spaced = write_points(tmp_path, f"\n{rows[0]}\n , \n{rows[1]}\n\n{rows[2]}\n", "b.csv")
        assert main(["gm-solve", spaced]) == 0
        with_blanks = capsys.readouterr().out
        assert main(["gm-solve", write_points(tmp_path, EQUILATERAL)]) == 0
        assert with_blanks == capsys.readouterr().out

    def test_byte_order_mark_is_not_part_of_the_first_cell(self, tmp_path, capsys):
        bom = write_points(tmp_path, "\ufeff" + EQUILATERAL, "bom.csv")
        assert main(["gm-solve", bom]) == 0
        with_bom = capsys.readouterr().out
        assert main(["gm-solve", write_points(tmp_path, EQUILATERAL)]) == 0
        assert with_bom == capsys.readouterr().out

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["gm-solve", str(tmp_path / "absent.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unwritable_output_exit_1(self, tmp_path, capsys):
        path = write_points(tmp_path, EQUILATERAL)
        rc = main(["gm-solve", path, "--output", str(tmp_path / "absent" / "x.json")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")

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

    @pytest.mark.parametrize("to_file", [False, True])
    def test_non_finite_result_exits_1_and_writes_nothing(self, tmp_path, capsys, to_file):
        # Step 1's distances overflow, so the objective is inf, which JSON
        # cannot hold: no output may carry it, on stdout or in a file.
        path = write_points(tmp_path, "9e153,0,1\n-9e153,0,1\n8e153,1,1\n")
        output = tmp_path / "wide.json"
        argv = ["gm-solve", path, "--budget", "1", "--rel-tol", "0"]
        with pytest.warns(RuntimeWarning, match="overflow"):
            rc = main(argv + (["--output", str(output)] if to_file else []))
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "error:" in captured.err
        assert not output.exists()

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
    @pytest.mark.parametrize("outdir", ["afile", ""])
    def test_unwritable_outdir_exit_1(self, tmp_path, capsys, monkeypatch, outdir):
        # An outdir that is an existing file, or empty, cannot be created.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("", encoding="utf-8")
        rc = main(["simulate", write_config(tmp_path), "--outdir", outdir])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert (tmp_path / "afile").read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_empty_outdir_exit_1_before_output(self, tmp_path, capsys, monkeypatch, command):
        # Else a sweep would write its point directories into the working directory.
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        sweep = ["--axis", "rho", "--values", "0"] if command == "sweep" else []
        assert main([command, cfg, *sweep, "--outdir", ""]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: run.outdir must not be empty\n"
        assert os.listdir(tmp_path) == ["config.json"]

    def test_failure_at_a_later_seed_leaves_no_outdir(self, tmp_path, capsys, monkeypatch):
        # Every seed runs before the outdir is made, so seed 0's trace is not written either.
        def fail_at_seed_1(config, seed):
            if seed == 1:
                raise ValueError("seed 1 failed")
            return run_one_seed(config, seed)

        monkeypatch.setattr("fedgm.cli.run_one_seed", fail_at_seed_1)
        assert main(["simulate", write_config(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: seed 1 failed\n")
        assert not os.path.exists(tmp_path / "runs")

    def test_writes_trace_per_seed_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["simulate", cfg])
        assert rc == 0
        outdir = tmp_path / "runs"
        assert (outdir / "0.csv").exists() and (outdir / "1.csv").exists()
        summary = json.loads((outdir / "summary.json").read_text())
        # Nothing derived across seeds: report combines them.
        assert set(summary) == {"schema_version", "config", "per_seed"}
        assert summary["schema_version"] == 1
        assert [row["seed"] for row in summary["per_seed"]] == [0, 1]

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

    def test_diverged_summary_is_strict_json(self, tmp_path):
        # At batch 1 and gamma0 1e4 round 0 ends on a NaN model, so every
        # final is non-finite, which strict JSON cannot hold.
        cfg = write_config(
            tmp_path,
            algorithm={"batch_size": 1, "epochs": 10, "gamma0": 10000.0},
            run={"seeds": [0]},
        )
        with pytest.warns(RuntimeWarning):  # overflow, then inf - inf
            assert main(["simulate", cfg]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        text = (tmp_path / "runs" / "summary.json").read_text()
        row = json.loads(text, parse_constant=reject)["per_seed"][0]
        assert row["diverged"] is True
        assert row["rounds_completed"] == 1
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

    def test_attack_flags_reach_the_config_and_the_run(self, tmp_path):
        cfg = write_config(tmp_path)
        flags = ["--rho", "0.25", "--corruption", "omniscient", "--aggregator", "rfa"]
        assert main(["simulate", cfg, *flags]) == 0
        summary = json.loads((tmp_path / "runs" / "summary.json").read_text())
        assert summary["config"]["corruption"] == {"kind": "omniscient", "rho": 0.25}
        assert summary["config"]["algorithm"]["aggregator"] == "rfa"
        for seed in (0, 1):
            with open(tmp_path / "runs" / f"{seed}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 5
            assert any(int(r["corrupted_selected"]) > 0 for r in rows)
            assert all(1 <= int(r["oracle_calls"]) <= 3 for r in rows)

    @pytest.mark.parametrize(
        "command,flag,text",
        [
            ("simulate", "--rounds", "x"),
            ("simulate", "--rounds", "2.5"),
            ("simulate", "--rho", "abc"),
            ("simulate", "--seeds", "1,x"),
            ("sweep", "--rounds", "x"),
            ("sweep", "--seeds", "0,1.5"),
        ],
    )
    def test_bad_flag_value_exit_1_before_output(self, tmp_path, capsys, command, flag, text):
        cfg = write_config(tmp_path)
        sweep = ["--axis", "rho", "--values", "0"] if command == "sweep" else []
        assert main([command, cfg, *sweep, flag, text]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: bad {flag} value {text!r}")
        assert not os.path.exists(tmp_path / "runs")

    @pytest.mark.parametrize("aggregator", ["mean", "rfa", "median_of_means"])
    @pytest.mark.parametrize("mode", ["plain", "masked"])
    def test_round_without_a_finite_update_ends_diverged(self, tmp_path, aggregator, mode):
        # At batch 1 and gamma0 1e4 every local update of round 0 overflows.
        # No row is finite, so the round averages, whatever the aggregator.
        path = tmp_path / "diverge.json"
        config = {
            "algorithm": {"aggregator": aggregator, "groups": 3, "batch_size": 1,
                          "epochs": 10, "gamma0": 10000.0},
            "run": {"rounds": 5, "seeds": [0], "outdir": str(tmp_path / "runs"),
                    "oracle_mode": mode},
        }
        path.write_text(json.dumps(config), encoding="utf-8")
        with pytest.warns(RuntimeWarning):  # overflow, then inf - inf
            assert main(["simulate", str(path)]) == 0
        trace = (tmp_path / "runs" / "0.csv").read_text(encoding="utf-8")
        assert trace.splitlines()[1:] == ["0,nan,nan,nan,1,0"]
        summary = json.loads((tmp_path / "runs" / "summary.json").read_text())
        assert summary["per_seed"][0]["diverged"] is True

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_halt_on_divergence_key_exit_1_before_output(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, run={"halt_on_divergence": False})
        sweep = ["--axis", "rho", "--values", "0"] if command == "sweep" else []
        assert main([command, cfg, *sweep]) == 1
        assert capsys.readouterr().err == "error: unknown config key run.halt_on_divergence\n"
        assert not os.path.exists(tmp_path / "runs")

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize(
        "block,key,value",
        [
            ("task", "feature_bound", 1.0),
            ("algorithm", "nu", 1e-6),
            ("algorithm", "rel_tol", 1e-6),
            ("algorithm", "decay", 0.5),
            ("algorithm", "decay_every", 50),
            ("task", "test_samples", 1000),
        ],
    )
    def test_fixed_scale_key_exit_1_before_output(
        self, tmp_path, capsys, command, block, key, value
    ):
        # Features have norm at most 1, every aggregation solve uses fl_core.NU
        # and AggregatorSpec's rel_tol, the rate halves every 50 rounds and the
        # test set has generate_ls_task's 1000 rows. So none of these is a
        # config key, even at its old default.
        cfg = write_config(tmp_path, **{block: {key: value}})
        sweep = ["--axis", "rho", "--values", "0"] if command == "sweep" else []
        assert main([command, cfg, *sweep]) == 1
        assert capsys.readouterr().err == f"error: unknown config key {block}.{key}\n"
        assert not os.path.exists(tmp_path / "runs")

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_median_of_means_without_groups_exit_1_before_output(
        self, tmp_path, capsys, command
    ):
        # The default algorithm.groups is 1, and one group's median is the mean.
        cfg = write_config(tmp_path)
        if command == "simulate":
            argv = ["simulate", cfg, "--aggregator", "median_of_means"]
        else:
            argv = ["sweep", cfg, "--axis", "aggregator", "--values", "mean,median_of_means"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: median_of_means needs groups >= 2\n"
        assert not os.path.exists(tmp_path / "runs")

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_empty_seed_list_exit_1_before_output(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        sweep = ["--axis", "rho", "--values", "0"] if command == "sweep" else []
        assert main([command, cfg, *sweep, "--seeds", ""]) == 1
        assert capsys.readouterr().err == "error: run.seeds must be a nonempty list\n"
        assert not os.path.exists(tmp_path / "runs")

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_fewer_training_rows_than_dimensions_exit_1_before_output(
        self, tmp_path, capsys, command
    ):
        # 2 devices x 4 samples = 8 training rows in d = 10: the pooled
        # least-squares optimum is not unique.
        cfg = write_config(
            tmp_path,
            task={"d": 10, "devices": 2, "samples_per_device": 4},
            algorithm={"batch_size": 4},
            run={"devices_per_round": 1},
        )
        sweep = ["--axis", "rho", "--values", "0"] if command == "sweep" else []
        assert main([command, cfg, *sweep]) == 1
        # generate_ls_task states the rule, and checks it before it draws a row.
        message = "devices * samples_per_device must be at least d"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.path.exists(tmp_path / "runs")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[1]", "config root must be a JSON object"),
            ('{"task": 5}', "config block 'task' must be an object"),
            ('{"task": {"d": 1' + "0" * 400 + "}}",
             "malformed config value: int too large to convert to float"),
        ],
        ids=["list_root", "number_block", "huge_int"],
    )
    def test_malformed_config_exit_1_before_output(
        self, tmp_path, capsys, monkeypatch, text, message
    ):
        monkeypatch.chdir(tmp_path)  # the default outdir is relative
        (tmp_path / "config.json").write_text(text, encoding="utf-8")
        assert main(["simulate", "config.json"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == ["config.json"]

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
            {"gamma0": "18"},
            {"gamma0": float("nan")},
            {"budget": 2.7},
            {"batch_size": 10.5},
            {"epochs": True},
            {"aggregator": "median_of_means", "groups": 20},
        ],
        ids=["string_gamma0", "nan_gamma0", "real_budget", "real_batch_size",
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
            {"task": {"noise_std": True}},
            {"run": {"outdir": 5}},
            {"run": {"seeds": [-1]}},
            {"task": {"d": 0}},
            {"task": {"noise_std": -0.1}},
            {"run": {"devices_per_round": 9}},
        ],
        ids=["bool_devices", "bool_rounds", "bool_seed", "nan_noise_std", "bool_noise_std",
             "int_outdir", "negative_seed", "zero_d", "negative_noise_std",
             "more_per_round_than_devices"],
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
        cfg = write_config(tmp_path, algorithm={"budget": 3.0, "gamma0": 1})
        assert main(["simulate", cfg, "--rounds", "2", "--seeds", "0"]) == 0
        summary = json.loads(open(tmp_path / "runs" / "summary.json").read())
        algorithm = summary["config"]["algorithm"]
        assert (algorithm["budget"], algorithm["gamma0"]) == (3, 1.0)
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

    def test_omniscient_mean_marked_diverged(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            task={"d": 10, "devices": 100, "samples_per_device": 50},
            corruption={"kind": "omniscient", "rho": 0.25},
            algorithm={"batch_size": 10, "epochs": 3, "gamma0": 30.0},
            run={"rounds": 8, "seeds": [0], "devices_per_round": 10},
        )
        assert main(["simulate", cfg]) == 0
        summary = json.loads((tmp_path / "runs" / "summary.json").read_text())
        assert summary["per_seed"][0]["diverged"] is True
        assert summary["per_seed"][0]["rounds_completed"] < 8
        capsys.readouterr()
        assert main(["report", str(tmp_path / "runs")]) == 0
        (row,) = [l.split() for l in capsys.readouterr().out.splitlines()[2:]]
        assert row[4] == "1"


class TestSweep:
    def test_rho_axis_long_csv(self, tmp_path):
        # Entries are stripped and empty ones dropped, in --values as in --seeds.
        cfg = write_config(tmp_path, corruption={"kind": "static_data", "rho": 0.1})
        rc = main(["sweep", cfg, "--axis", "rho", "--values", " 0, 0.2,", "--seeds", "0, 1, ",
                   "--rounds", "3"])
        assert rc == 0
        assert sorted(os.listdir(tmp_path / "runs")) == ["rho=0", "rho=0.2"]
        for name, rho in (("rho=0", 0.0), ("rho=0.2", 0.2)):
            point = tmp_path / "runs" / name
            assert sorted(os.listdir(point)) == ["0.csv", "1.csv", "summary.json"]
            summary = json.loads((point / "summary.json").read_text())
            assert summary["config"]["corruption"] == {"kind": "static_data", "rho": rho}
            assert summary["config"]["run"]["outdir"] == str(point)
            assert [row["rounds_completed"] for row in summary["per_seed"]] == [3, 3]

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

    def test_point_that_fails_at_a_seed_leaves_no_outdir(self, tmp_path, capsys, monkeypatch):
        # Each point runs every seed before it writes, so only the failed point has no outdir.
        def fail_under_attack(config, seed):
            if config["corruption"]["rho"] > 0 and seed == 1:
                raise ValueError("attacked seed 1 failed")
            return run_one_seed(config, seed)

        monkeypatch.setattr("fedgm.cli.run_one_seed", fail_under_attack)
        cfg = write_config(tmp_path, corruption={"kind": "omniscient"})
        assert main(["sweep", cfg, "--axis", "rho", "--values", "0,0.25"]) == 1
        assert capsys.readouterr().err == "error: attacked seed 1 failed\n"
        assert os.listdir(tmp_path / "runs") == ["rho=0"]
        written = sorted(os.listdir(tmp_path / "runs" / "rho=0"))
        assert written == ["0.csv", "1.csv", "summary.json"]

    def test_repeated_seed_exit_1_before_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["sweep", cfg, "--axis", "rho", "--values", "0", "--seeds", "1,0,1"])
        assert rc == 1
        assert "run.seeds" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "runs")

    @pytest.mark.parametrize(
        "axis,values", [("rho", "0,0"), ("rho", "0,0.0"), ("aggregator", "rfa,mean,rfa")]
    )
    def test_repeated_point_exit_1_before_output(self, tmp_path, capsys, axis, values):
        # Two values whose configs are equal would run, and count, one point twice.
        cfg = write_config(tmp_path)
        rc = main(["sweep", cfg, "--axis", axis, "--values", values])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "repeats the sweep point" in err
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
        point = tmp_path / "sw" / "rho=0"
        assert (point / "3.csv").read_bytes() == (tmp_path / "sim" / "3.csv").read_bytes()
        summaries = [json.loads((d / "summary.json").read_text()) for d in (tmp_path / "sim", point)]
        assert summaries[0]["per_seed"] == summaries[1]["per_seed"]
        assert summaries[1]["per_seed"][0]["seed"] == 3

    @pytest.mark.parametrize(
        "axis,value,flags,algorithm",
        [
            ("rho", "0.25", ["--corruption", "omniscient", "--aggregator", "rfa"], {}),
            ("aggregator", "rfa", ["--corruption", "omniscient"], {}),
            # At batch 1 and gamma0 1e4, round 0 ends on NaN.
            ("aggregator", "mean", ["--corruption", "omniscient"],
             {"batch_size": 1, "epochs": 10, "gamma0": 10000.0}),
        ],
        ids=["rho-0.25-flags0", "aggregator-rfa-flags1", "diverged"],
    )
    def test_point_is_simulate_with_the_axis_flag(
        self, tmp_path, monkeypatch, axis, value, flags, algorithm
    ):
        # The config's rho needs the --corruption flag to be valid.
        cfg = write_config(
            tmp_path, corruption={"rho": 0.25}, algorithm=algorithm, run={"seeds": [2]}
        )
        ran = []

        def record(config, seed):
            ran.append(copy.deepcopy(config))
            return run_one_seed(config, seed)

        out = str(tmp_path / "sweep")
        argv = ["sweep", cfg, "--axis", axis, "--values", value, *flags, "--outdir", out]
        # A diverged run warns of its overflow.
        with pytest.warns(RuntimeWarning) if algorithm else contextlib.nullcontext():
            assert main(["simulate", cfg, *flags, f"--{axis}", value]) == 0
            monkeypatch.setattr("fedgm.cli.run_one_seed", record)
            assert main(argv) == 0
        point = Path(out) / f"{axis}={value}"
        summary = json.loads((tmp_path / "runs" / "summary.json").read_text())
        twin = {**summary["config"], "run": {**summary["config"]["run"], "outdir": str(point)}}
        assert ran == [twin]
        assert sorted(os.listdir(out)) == [point.name]
        assert (point / "2.csv").read_bytes() == (tmp_path / "runs" / "2.csv").read_bytes()
        assert json.loads((point / "summary.json").read_text()) == {**summary, "config": twin}
        (final,) = summary["per_seed"]
        assert final["diverged"] == bool(algorithm)
        assert (final["final_train_loss"] is None) == bool(algorithm)

    def test_aggregator_sweep_takes_the_rho_flag(self, tmp_path):
        # Each point is simulate with the same flags plus --aggregator v, so an
        # aggregator sweep at one rho needs no config of its own.
        cfg = write_config(tmp_path)
        flags = ["--corruption", "omniscient", "--rho", "0.25", "--rounds", "3"]
        out = tmp_path / "sweep"
        argv = ["sweep", cfg, "--axis", "aggregator", "--values", "mean,rfa", *flags]
        assert main([*argv, "--outdir", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["aggregator=mean", "aggregator=rfa"]
        for value in ("mean", "rfa"):
            sim = tmp_path / value
            assert main(["simulate", cfg, *flags, "--aggregator", value, "--outdir", str(sim)]) == 0
            point = out / f"aggregator={value}"
            summary = json.loads((point / "summary.json").read_text())
            assert summary["config"]["corruption"] == {"kind": "omniscient", "rho": 0.25}
            for seed in (0, 1):
                assert (point / f"{seed}.csv").read_bytes() == (sim / f"{seed}.csv").read_bytes()

    def test_the_axis_value_wins_over_its_flag(self, tmp_path):
        # As a later flag wins in simulate, --<axis> v comes after the flags.
        cfg = write_config(tmp_path)
        flags = ["--rho", "0.1", "--corruption", "omniscient", "--rounds", "2"]
        assert main(["sweep", cfg, "--axis", "rho", "--values", "0,0.25", *flags]) == 0
        assert sorted(os.listdir(tmp_path / "runs")) == ["rho=0", "rho=0.25"]
        for name, rho in (("rho=0", 0.0), ("rho=0.25", 0.25)):
            summary = json.loads((tmp_path / "runs" / name / "summary.json").read_text())
            assert summary["config"]["corruption"] == {"kind": "omniscient", "rho": rho}

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
        mean, rfa = (
            json.loads((tmp_path / "runs" / f"aggregator={v}" / "summary.json").read_text())
            for v in ("mean", "rfa")
        )
        assert [row["seed"] for row in mean["per_seed"]] == [row["seed"] for row in rfa["per_seed"]]
        for m, r in zip(mean["per_seed"], rfa["per_seed"]):
            assert r["final_train_loss"] <= m["final_train_loss"]

    def test_report_tabulates_the_points(self, tmp_path, capsys):
        cfg = write_config(tmp_path, corruption={"kind": "omniscient"})
        assert main(["sweep", cfg, "--axis", "rho", "--values", "0,0.25", "--rounds", "2"]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out
        rows = [l.split() for l in out.splitlines() if l and not l.startswith(("run", "-"))]
        assert [row[0] for row in rows] == ["rho=0", "rho=0.25"]
        assert all(row[1] == "2" and row[4] == "0" for row in rows)


class TestReport:
    def test_empty_directory_exit_1(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no summary.json under {tmp_path}\n"

    @pytest.mark.parametrize("name", ["missing", "summary.json"])
    def test_missing_path_or_file_exit_1(self, tmp_path, capsys, name):
        # A mistyped path fails as an empty tree does, on stderr.
        write_summary_json(str(tmp_path / "summary.json"), DEFAULT_CONFIG, [seed_summary(0, 1.0)])
        rundir = str(tmp_path / name)
        assert main(["report", rundir]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no summary.json under {rundir}\n"

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
        # The run column is as wide as the longest label, here 43 characters.
        long = os.path.join("sweep-aggregator", "aggregator=median_of_means")
        for sub in ("a", "b", long):
            cfg = write_config(
                tmp_path, run={"outdir": str(tmp_path / "grid" / sub), "seeds": [0]}
            )
            main(["simulate", cfg])
        capsys.readouterr()
        rc = main(["report", str(tmp_path / "grid")])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.splitlines()
        rows = [l for l in lines if l and not l.startswith(("run", "-"))]
        assert [row.split()[0] for row in rows] == ["a", "b", long]
        assert {len(l) for l in lines} == {len(long) + 49}

    def test_nan_final_ranks_as_diverged_whatever_the_seed_order(self, tmp_path, capsys):
        # The same finals {1, null, 2}, held by different seeds in each directory.
        for sub, finals in (("a", (1.0, None, 2.0)), ("b", (None, 1.0, 2.0))):
            rundir = tmp_path / "grid" / sub
            rundir.mkdir(parents=True)
            per_seed = [seed_summary(seed, final) for seed, final in enumerate(finals)]
            write_summary_json(str(rundir / "summary.json"), DEFAULT_CONFIG, per_seed)
        assert main(["report", str(tmp_path / "grid")]) == 0
        out = capsys.readouterr().out
        rows = [l.split() for l in out.splitlines() if l and not l.startswith(("run", "-"))]
        assert [row[0] for row in rows] == ["a", "b"]
        assert rows[0][1:] == rows[1][1:] == ["3", "2", "1", "1"]

    def test_diverged_column_counts_the_per_seed_flags(self, tmp_path, capsys):
        # One seed diverged to NaN (a null final), one stopped at a finite
        # loss above the divergence threshold: both count.
        per_seed = [seed_summary(0, 1.0), seed_summary(1, None), seed_summary(2, 1e13)]
        per_seed[2]["diverged"] = True
        path = tmp_path / "summary.json"
        write_summary_json(str(path), DEFAULT_CONFIG, per_seed)
        summary = json.loads(path.read_text(encoding="utf-8"))
        assert summary == {"schema_version": 1, "config": DEFAULT_CONFIG, "per_seed": per_seed}
        assert main(["report", str(tmp_path)]) == 0
        (row,) = [l.split() for l in capsys.readouterr().out.splitlines()[2:]]
        assert row == [".", "3", "1e+13", "1", "2"]

    def test_summary_with_cross_seed_keys_reports_the_same_line(self, tmp_path, capsys):
        # Summaries written before report derived every cross-seed figure also
        # hold an "aggregate" block and a "diverged_seeds" count; report ignores both.
        per_seed = [seed_summary(0, 1.0), seed_summary(1, None), seed_summary(2, 3.0)]
        for sub in ("new", "old"):
            (tmp_path / sub).mkdir()
            write_summary_json(str(tmp_path / sub / "summary.json"), DEFAULT_CONFIG, per_seed)
        old = tmp_path / "old" / "summary.json"
        summary = json.loads(old.read_text(encoding="utf-8"))
        finals = {"min": 1.0, "max": 3.0, "mean": 2.0}
        summary["aggregate"] = {"final_train_loss": finals, "final_test_loss": finals}
        summary["diverged_seeds"] = 1
        old.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        assert main(["report", str(tmp_path)]) == 0
        rows = [l.split() for l in capsys.readouterr().out.splitlines()[2:]]
        assert rows == [["new", "3", "3", "1", "1"], ["old", "3", "3", "1", "1"]]

    def test_counts_only_the_seeds_its_summary_lists(self, tmp_path, capsys):
        # The second run leaves the first run's traces of seeds 1 and 2 behind.
        cfg = write_config(tmp_path)
        assert main(["simulate", cfg, "--seeds", "0,1,2"]) == 0
        assert main(["simulate", cfg, "--aggregator", "rfa", "--seeds", "0"]) == 0
        (final,) = json.loads((tmp_path / "runs" / "summary.json").read_text())["per_seed"]
        capsys.readouterr()
        assert main(["report", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out
        (row,) = [l.split() for l in out.splitlines() if l and not l.startswith(("run", "-"))]
        assert row[1:] == [
            "1",
            f"{final['final_train_loss']:.6g}",
            f"{final['oracle_calls_total']:g}",
            "0",
        ]

    def test_trace_csvs_without_a_summary_are_no_run(self, tmp_path, capsys):
        # What a simulate that exited 1 partway leaves behind.
        header = ",".join(TRACE_CSV_COLUMNS)
        (tmp_path / "0.csv").write_text(header + "\n0,1,1,0.5,1,0\n", encoding="utf-8")
        assert main(["report", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no summary.json under {tmp_path}\n"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text[:-2],
            lambda text: f"[{text}]",
            lambda text: text.replace('"schema_version": 1', '"schema_version": 2'),
            lambda text: text.replace('"oracle_calls_total"', '"oracle_calls"'),
        ],
        ids=["not-json", "not-an-object", "foreign-schema-version", "missing-key"],
    )
    def test_rejects_foreign_summary(self, tmp_path, capsys, edit):
        # A good run sorts ahead of the foreign one; no table is printed.
        rundir = tmp_path / "runs"
        for sub in ("a", "b"):
            (rundir / sub).mkdir(parents=True)
            path = rundir / sub / "summary.json"
            write_summary_json(str(path), DEFAULT_CONFIG, [seed_summary(0, 1.0)])
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        rc = main(["report", str(rundir)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")


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

        # scipy is a test-only dependency: the package never imports it.
        code = "import sys, fedgm, fedgm.cli; assert 'scipy' not in sys.modules"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_every_subcommand_runs_without_scipy(self, tmp_path):
        import subprocess
        import sys

        # A None entry in sys.modules makes every import of scipy fail, so
        # each subcommand here runs as it would with numpy alone installed.
        code = """
import sys
sys.modules["scipy"] = None
from fedgm.cli import main
points, config, out = sys.argv[1:]
runs = [
    ["gm-solve", points, "--nu", "1e-6", "--budget", "50", "--rel-tol", "1e-6"],
    ["simulate", config, "--rounds", "2", "--seeds", "0", "--outdir", out + "/simulate"],
    ["sweep", config, "--axis", "rho", "--values", "0,0.25", "--corruption", "omniscient",
     "--rounds", "2", "--seeds", "0", "--outdir", out + "/sweep"],
    ["report", out + "/sweep"],
]
codes = [main(argv) for argv in runs]
assert codes == [0, 0, 0, 0], codes
"""
        points = write_points(tmp_path, "0,0,1\n2,0,1\n1,1.7320508,1\n")  # README's triangle
        config = tmp_path / "config.json"
        config.write_text("{}", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-c", code, points, str(config), str(tmp_path)],
            capture_output=True,
            text=True,
        )
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
