"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_parses_config_flags(self):
        args = build_parser().parse_args([
            "run", "edsr", "cifar10-like", "--epochs", "3", "--selection", "random",
            "--replay-loss", "dis", "--seed", "5"])
        assert args.method == "edsr"
        assert args.epochs == 3
        assert args.selection == "random"
        assert args.seed == 5

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "icarl", "cifar10-like"])

    def test_compare_default_methods(self):
        args = build_parser().parse_args(["compare", "cifar10-like"])
        assert "edsr" in args.methods


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cifar10-like" in out
        assert "edsr" in out

    def test_run_finetune_tiny(self, capsys, tmp_path):
        output = tmp_path / "r.json"
        code = main(["run", "finetune", "cifar10-like", "--epochs", "1",
                     "--output", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Acc =" in out
        payload = json.loads(output.read_text())
        assert payload["n_tasks"] == 5

    def test_run_multitask(self, capsys):
        assert main(["run", "multitask", "cifar10-like", "--epochs", "1"]) == 0
        assert "Acc =" in capsys.readouterr().out

    def test_compare_prints_table(self, capsys):
        code = main(["compare", "cifar10-like", "--methods", "finetune", "cassle",
                     "--epochs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "finetune" in out
        assert "cassle" in out

    def test_tabular_benchmark_defaults_to_adam(self, capsys):
        assert main(["run", "finetune", "tabular", "--epochs", "1"]) == 0
        assert "Acc =" in capsys.readouterr().out

    def test_chaos_list_prints_catalog(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "pool-degrade-serial" in out

    def test_chaos_single_scenario_writes_report(self, capsys, tmp_path):
        output = tmp_path / "chaos.json"
        code = main(["chaos", "--scenarios", "ckpt-io-error", "--skip-sweep",
                     "--workdir", str(tmp_path / "runs"),
                     "--output", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall: OK" in out
        report = json.loads(output.read_text())
        assert report["ok"]
        assert [e["scenario"] for e in report["scenarios"]] == ["ckpt-io-error"]


class TestScenarioFlags:
    def test_run_parses_scenario_flags(self):
        args = build_parser().parse_args([
            "run", "edsr", "cifar10-like", "--scenario", "task_free",
            "--segments-per-task", "2", "--drift-threshold", "0.9",
            "--scenario-seed", "4"])
        assert args.scenario == "task_free"
        assert args.segments_per_task == 2
        assert args.drift_threshold == 0.9
        assert args.scenario_seed == 4

    @pytest.mark.parametrize("command", [["compare", "cifar10-like"],
                                         ["sweep", "cifar10-like", "out"]])
    @pytest.mark.parametrize("flag", [
        "--scenario-seed", "--blur-ratio", "--segments-per-task",
        "--drift-threshold", "--domain-count", "--domain-shift",
        "--long-cycles"])
    def test_compare_and_sweep_reject_scenario_knobs(self, command, flag,
                                                     capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(command + [flag, "1"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_run_scenario_knob_without_scenario_is_an_error(self, capsys):
        code = main(["run", "finetune", "cifar10-like", "--epochs", "1",
                     "--blur-ratio", "0.9", "--long-cycles", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--blur-ratio, --long-cycles requires --scenario" in err

    def test_run_multitask_rejects_scenario(self, capsys):
        # multitask trains once on the union of tasks; a scenario would be
        # silently ignored, so the run must refuse it before training.
        code = main(["run", "multitask", "cifar10-like", "--epochs", "1",
                     "--scenario", "blurry"])
        assert code == 2
        captured = capsys.readouterr()
        assert "multitask has no scenario support" in captured.err
        assert "Acc =" not in captured.out

    def test_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "edsr", "cifar10-like", "--scenario", "nope"])

    def test_list_shows_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "task_free" in out and "blurry" in out

    def test_scenario_run_writes_transfer_matrix(self, capsys, tmp_path):
        output = tmp_path / "r.json"
        code = main(["run", "finetune", "cifar10-like", "--epochs", "1",
                     "--scenario", "blurry", "--output", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "transfer[blurry]" in out
        transfer_path = tmp_path / "r-transfer.json"
        assert transfer_path.exists()
        payload = json.loads(transfer_path.read_text())
        assert payload["scenario"] == "blurry"
        assert payload["rows_recorded"] == payload["n_rows"] == 5
        assert payload["summary"]["final_accuracy"] is not None
        # The result JSON rides along unchanged.
        assert json.loads(output.read_text())["n_tasks"] == 5

    def test_transfer_output_flag_overrides_the_default_path(self, capsys,
                                                             tmp_path):
        transfer_path = tmp_path / "tm.json"
        code = main(["run", "finetune", "cifar10-like", "--epochs", "1",
                     "--scenario", "class_incremental",
                     "--transfer-output", str(transfer_path)])
        assert code == 0
        assert transfer_path.exists()
        assert "transfer matrix written to" in capsys.readouterr().out


class TestFaultToleranceFlags:
    def test_run_parses_checkpoint_flags(self):
        args = build_parser().parse_args([
            "run", "edsr", "cifar10-like", "--checkpoint-dir", "runs/x",
            "--resume", "--guardrails", "--lr-backoff", "0.25"])
        assert args.checkpoint_dir == "runs/x"
        assert args.resume and args.guardrails
        assert args.lr_backoff == 0.25

    def test_resume_without_checkpoint_dir_is_an_error(self, capsys):
        code = main(["run", "finetune", "cifar10-like", "--epochs", "1",
                     "--resume"])
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_run_writes_checkpoints_and_resumes(self, capsys, tmp_path):
        ckpt = tmp_path / "run"
        base = ["run", "finetune", "cifar10-like", "--epochs", "1",
                "--checkpoint-dir", str(ckpt)]
        assert main(base) == 0
        manifests = sorted(p.name for p in ckpt.glob("ckpt-*.json"))
        assert manifests  # one per task
        assert (ckpt / "events.jsonl").exists()
        capsys.readouterr()
        # Resuming a complete run reruns nothing and prints the same result.
        assert main(base + ["--resume"]) == 0
        assert "Acc =" in capsys.readouterr().out

    def test_guardrails_run_completes(self, capsys):
        assert main(["run", "finetune", "cifar10-like", "--epochs", "1",
                     "--guardrails"]) == 0
        assert "Acc =" in capsys.readouterr().out

    def test_compare_resume_skips_cached_methods(self, capsys, tmp_path):
        ckpt = tmp_path / "cmp"
        base = ["compare", "cifar10-like", "--methods", "finetune",
                "--epochs", "1", "--checkpoint-dir", str(ckpt)]
        assert main(base) == 0
        assert (ckpt / "finetune" / "result.json").exists()
        capsys.readouterr()
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "finetune" in out
