"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``      train one method on one benchmark, print Acc/Fgt and the
             accuracy matrix, optionally save the result JSON; with
             ``--checkpoint-dir`` the run checkpoints atomically after every
             task and ``--resume`` continues a killed run bit-for-bit;
             ``--guardrails`` enables NaN/divergence recovery; ``--scenario``
             routes through the scenario registry (task-free, blurry,
             domain-incremental, long streams) and writes the serialized
             transfer matrix next to the result;
``compare``  train several methods on one benchmark and print a ranking
             table (a single-seed Table III slice); ``--checkpoint-dir`` +
             ``--resume`` checkpoint each method in its own subdirectory and
             skip methods whose results are already complete;
``sweep``    run methods x seeds, saving one result JSON per run into a
             directory; ``--resume`` skips runs whose JSON already exists;
``report``   render a directory of saved results as a markdown report;
``list``     show available benchmarks, methods, selection strategies,
             replay losses, and objectives;
``lint``     run the repo-specific static analysis — single-file rules
             (DET001/AD001/AD002/API001/SER001/PERF001/TAPE001/MP001/RB001)
             and whole-program dataflow rules (DET002/TAPE002/MP002/SER002)
             — plus the gradcheck-coverage audit; supports ``--format``
             text/json/sarif, an incremental cache, and a baseline
             ratchet; exits non-zero on any non-baselined violation;
``chaos``    run the seeded fault-injection campaign: every catalog
             scenario (worker kills, torn checkpoint writes, loader
             faults, NaN payloads, whole-process crashes) end-to-end
             through the trainer plus the checkpoint crash-consistency
             sweep, emitting a JSON survival report; every failure
             reproduces exactly from its ``(seed, scenario)`` pair;
``bench``    run the op-registry microbenchmarks (fused-vs-unfused kernels,
             the SSL training-step bench, the tape eager-vs-replay bench,
             the serial-vs-multiprocess sharded-step bench, and the
             eval-probe bench: SGD vs closed-form ridge probe wall-time,
             accuracy delta, and the shard-merge bit-for-bit check);
             ``--output`` writes the JSON report, ``--smoke`` runs a
             sub-second variant for CI.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.continual import ContinualConfig, run_method, run_multitask
from repro.data import load_image_benchmark, load_tabular_benchmark
from repro.data.registry import IMAGE_PRESETS
from repro.utils import format_table
from repro.utils.serialization import save_result

METHODS = ["finetune", "si", "der", "lump", "cassle", "edsr", "lin", "pfr", "curl"]


def _scenario_names() -> list[str]:
    from repro.scenarios import scenario_names

    return scenario_names()


def _load_benchmark(name: str, scale: str, n_tasks: int | None):
    if name == "tabular":
        return load_tabular_benchmark(scale)
    return load_image_benchmark(name, scale, n_tasks=n_tasks)


def _config_from_args(args: argparse.Namespace) -> ContinualConfig:
    overrides = {}
    for field in ("epochs", "batch_size", "lr", "memory_budget", "replay_batch_size",
                  "noise_neighbors", "selection", "replay_loss", "objective",
                  "replay_sampling", "use_tape", "workers", "probe",
                  "scenario", "scenario_seed", "blur_ratio", "segments_per_task",
                  "drift_threshold", "domain_count", "domain_shift", "long_cycles"):
        value = getattr(args, field, None)
        if value is not None:
            overrides[field] = value
    if args.benchmark == "tabular" and "lr" not in overrides:
        overrides.update(optimizer="adam", lr=1e-3)
    return ContinualConfig().with_overrides(**overrides)


def _add_fault_tolerance_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint-dir", dest="checkpoint_dir",
                        help="write atomic per-task checkpoints + event log here")
    parser.add_argument("--resume", action="store_true",
                        help="continue from the last good checkpoint in "
                             "--checkpoint-dir (bit-for-bit)")
    parser.add_argument("--guardrails", action="store_true",
                        help="enable divergence guardrails (skip batch -> "
                             "restore with LR backoff -> abort with report)")
    parser.add_argument("--max-grad-norm", dest="max_grad_norm", type=float,
                        help="gradient-norm explosion threshold (implies --guardrails)")
    parser.add_argument("--max-batch-skips", dest="max_batch_skips", type=int,
                        help="skipped batches per task before a restore "
                             "(implies --guardrails)")
    parser.add_argument("--lr-backoff", dest="lr_backoff", type=float,
                        help="LR factor applied per restore (implies --guardrails)")
    parser.add_argument("--max-restores", dest="max_restores", type=int,
                        help="restores per task before aborting (implies --guardrails)")


def _guardrails_from_args(args: argparse.Namespace):
    from repro.runtime import GuardrailPolicy

    overrides = {}
    if args.max_grad_norm is not None:
        overrides["max_grad_norm"] = args.max_grad_norm
    if args.max_batch_skips is not None:
        overrides["max_skips_per_task"] = args.max_batch_skips
    if args.lr_backoff is not None:
        overrides["lr_backoff"] = args.lr_backoff
    if args.max_restores is not None:
        overrides["max_restores_per_task"] = args.max_restores
    if not args.guardrails and not overrides:
        return None
    return GuardrailPolicy(**overrides)


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--batch-size", dest="batch_size", type=int)
    parser.add_argument("--lr", type=float)
    parser.add_argument("--memory-budget", dest="memory_budget", type=int)
    parser.add_argument("--replay-batch-size", dest="replay_batch_size", type=int)
    parser.add_argument("--noise-neighbors", dest="noise_neighbors", type=int)
    parser.add_argument("--selection", choices=["random", "kmeans", "min-var",
                                                "distant", "high-entropy"])
    parser.add_argument("--replay-loss", dest="replay_loss", choices=["css", "dis", "rpl"])
    parser.add_argument("--replay-sampling", dest="replay_sampling",
                        choices=["uniform", "similarity"])
    parser.add_argument("--objective", choices=["simsiam", "barlow", "byol", "vae"])
    parser.add_argument("--probe", choices=["knn", "linear", "ridge"],
                        help="evaluation probe fitted per accuracy-matrix "
                             "cell: knn (paper default), linear (SGD softmax "
                             "head), or ridge (closed-form streaming probe)")
    parser.add_argument("--no-tape", dest="use_tape", action="store_const",
                        const=False, default=None,
                        help="disable tape capture/replay of the training "
                             "step (force eager dispatch)")
    parser.add_argument("--workers", type=int,
                        help="enter the sharded data-parallel regime with N "
                             "processes (bit-for-bit identical for every N; "
                             "1 runs the shard program serially; default: "
                             "classic single-process step)")
    parser.add_argument("--scale", default="ci", choices=["ci", "paper"])
    parser.add_argument("--n-tasks", dest="n_tasks", type=int)
    parser.add_argument("--seed", type=int, default=0)


#: Scenario knobs: ``run`` accepts them only together with ``--scenario``.
_SCENARIO_KNOBS = ("scenario_seed", "blur_ratio", "segments_per_task",
                   "drift_threshold", "domain_count", "domain_shift",
                   "long_cycles", "transfer_output")


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", choices=_scenario_names(),
                        help="route the run through the scenario registry "
                             "(stream shape + first-class transfer matrix); "
                             "default: plain class-incremental run, no "
                             "transfer matrix")
    parser.add_argument("--transfer-output", dest="transfer_output",
                        help="write the serialized transfer matrix here "
                             "(default: next to --output, else "
                             "./transfer-matrix.json)")
    parser.add_argument("--scenario-seed", dest="scenario_seed", type=int,
                        help="seed for the stream builders (independent of "
                             "the training --seed)")
    parser.add_argument("--blur-ratio", dest="blur_ratio", type=float,
                        help="blurry scenario: fraction of each task's data "
                             "donated to neighbour tasks")
    parser.add_argument("--segments-per-task", dest="segments_per_task", type=int,
                        help="task-free scenario: unsignalled segments per "
                             "base task")
    parser.add_argument("--drift-threshold", dest="drift_threshold", type=float,
                        help="task-free scenario: drift-detector firing "
                             "threshold")
    parser.add_argument("--domain-count", dest="domain_count", type=int,
                        help="domain-incremental scenario: number of domains")
    parser.add_argument("--domain-shift", dest="domain_shift", type=float,
                        help="domain-incremental scenario: nuisance-transform "
                             "strength")
    parser.add_argument("--long-cycles", dest="long_cycles", type=int,
                        help="long-sequence scenario: cycles over the base "
                             "task order")


def _transfer_output_path(args: argparse.Namespace):
    """Where the serialized TransferMatrix lands for a scenario run."""
    import pathlib

    if args.transfer_output:
        return pathlib.Path(args.transfer_output)
    if args.output:
        out = pathlib.Path(args.output)
        return out.with_name(out.stem + "-transfer.json")
    return pathlib.Path("transfer-matrix.json")


def _command_run(args: argparse.Namespace) -> int:
    if args.scenario is None:
        knobs = [f"--{knob.replace('_', '-')}" for knob in _SCENARIO_KNOBS
                 if getattr(args, knob) is not None]
        if knobs:
            print(f"error: {', '.join(knobs)} requires --scenario",
                  file=sys.stderr)
            return 2
    elif args.method == "multitask":
        print("error: multitask has no scenario support; drop --scenario",
              file=sys.stderr)
        return 2
    sequence = _load_benchmark(args.benchmark, args.scale, args.n_tasks)
    config = _config_from_args(args)
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.method == "multitask":
        result = run_multitask(sequence, config, seed=args.seed, verbose=True)
        print(f"Acc = {100 * result.acc():.2f}%")
        return 0
    transfer = None
    if args.scenario is not None:
        from repro.scenarios import run_scenario_method
        from repro.utils.serialization import save_transfer_matrix

        result, transfer = run_scenario_method(
            args.method, sequence, config, seed=args.seed, verbose=True,
            checkpoint_dir=args.checkpoint_dir, resume=args.resume,
            guardrails=_guardrails_from_args(args))
    else:
        result = run_method(args.method, sequence, config, seed=args.seed,
                            verbose=True, checkpoint_dir=args.checkpoint_dir,
                            resume=args.resume,
                            guardrails=_guardrails_from_args(args))
    print(f"\nAcc = {100 * result.acc():.2f}%   Fgt = {100 * result.fgt():.2f}%   "
          f"time = {result.elapsed_seconds:.1f}s")
    with np.printoptions(precision=3, nanstr="  .  "):
        print(result.accuracy_matrix)
    if transfer is not None:
        summary = transfer.summary()
        cells = "   ".join(
            f"{key} = {100 * value:.2f}%" if value is not None else f"{key} = n/a"
            for key, value in summary.items())
        print(f"transfer[{args.scenario}]: {cells}")
        transfer_path = _transfer_output_path(args)
        save_transfer_matrix(transfer, transfer_path)
        print(f"transfer matrix written to {transfer_path}")
    if args.output:
        save_result(result, args.output)
        print(f"result written to {args.output}")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    import pathlib

    from repro.utils.serialization import load_result

    sequence = _load_benchmark(args.benchmark, args.scale, args.n_tasks)
    config = _config_from_args(args)
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    guardrails = _guardrails_from_args(args)
    rows = []
    for method in args.methods:
        if method == "multitask":
            result = run_multitask(sequence, config, seed=args.seed)
            rows.append(["multitask", f"{100 * result.acc():.2f}", "-",
                         f"{result.elapsed_seconds:.1f}"])
            continue
        method_dir = result_path = None
        if args.checkpoint_dir:
            method_dir = pathlib.Path(args.checkpoint_dir) / method
            result_path = method_dir / "result.json"
        if args.resume and result_path is not None and result_path.exists():
            result = load_result(result_path)
            if result.complete:
                print(f"{method}: complete result found, skipping training")
                rows.append([method, f"{100 * result.acc():.2f}",
                             f"{100 * result.fgt():.2f}",
                             f"{result.elapsed_seconds:.1f}"])
                continue
        result = run_method(method, sequence, config, seed=args.seed,
                            checkpoint_dir=method_dir, resume=args.resume,
                            guardrails=guardrails)
        if result_path is not None:
            save_result(result, result_path)
        rows.append([method, f"{100 * result.acc():.2f}", f"{100 * result.fgt():.2f}",
                     f"{result.elapsed_seconds:.1f}"])
    print(format_table(["method", "Acc %", "Fgt %", "time s"], rows,
                       title=f"{args.benchmark} ({args.scale} scale, seed {args.seed})"))
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    import pathlib

    sequence = _load_benchmark(args.benchmark, args.scale, args.n_tasks)
    config = _config_from_args(args)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for method in args.methods:
        for seed in range(args.seeds):
            path = out_dir / f"{method}_seed{seed}.json"
            if args.resume and path.exists():
                print(f"{method} seed {seed}: result exists, skipping -> {path}")
                continue
            result = run_method(method, sequence, config, seed=seed)
            save_result(result, path)
            print(f"{method} seed {seed}: Acc={100 * result.acc():.2f} "
                  f"Fgt={100 * result.fgt():.2f} -> {path}")
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from repro.utils.report import build_report, write_report

    if args.output:
        path = write_report(args.results_dir, args.output, title=args.title)
        print(f"report written to {path}")
    else:
        print(build_report(args.results_dir, title=args.title))
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from repro.analysis import main as lint_main

    argv = list(args.paths)
    if args.select:
        argv += ["--select", args.select]
    if args.format != "text":
        argv += ["--format", args.format]
    if args.baseline:
        argv += ["--baseline", args.baseline]
    if args.update_baseline:
        argv += ["--update-baseline"]
    if args.stats:
        argv += ["--stats"]
    if args.cache:
        argv += ["--cache", args.cache]
    if args.no_cache:
        argv += ["--no-cache"]
    if args.jobs is not None:
        argv += ["--jobs", str(args.jobs)]
    if args.tests:
        argv += ["--tests", args.tests]
    if args.no_coverage:
        argv += ["--no-coverage"]
    return lint_main(argv)


def _command_bench(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from repro.bench import REQUIRED_SPEEDUP, format_report, run_suite

    report = run_suite(smoke=args.smoke, repeats=args.repeats)
    print(format_report(report))
    if args.output:
        path = pathlib.Path(args.output)
        path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"\nbench report written to {path}")
    ssl = report["ssl_step"]
    if "speedup_vs_pre_refactor" in ssl \
            and ssl["speedup_vs_pre_refactor"] < REQUIRED_SPEEDUP:
        return 1
    tape = report.get("tape", {})
    if "required_speedup" in tape \
            and tape["speedup_replay_vs_eager"] < tape["required_speedup"]:
        return 1
    sharding = report.get("sharding", {})
    if "required_speedup" in sharding \
            and sharding["speedup_sharded_vs_serial"] < sharding["required_speedup"]:
        return 1
    probe = report.get("eval_probe", {})
    if "shard_merge" in probe \
            and not probe["shard_merge"]["identical_across_worker_counts"]:
        # The merge contract is shape-independent — enforced even in smoke.
        return 1
    if "required_speedup" in probe \
            and (probe["speedup_ridge_vs_linear"] < probe["required_speedup"]
                 or probe["accuracy_delta"] > probe["max_accuracy_delta"]):
        return 1
    return 0


def _command_chaos(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from repro.faults.chaos import format_campaign, run_campaign
    from repro.faults.scenarios import SCENARIOS, scenario_names

    if args.list_scenarios:
        for name in scenario_names():
            scenario = SCENARIOS[name]
            print(f"{name:24s} expect={scenario.expect:16s} "
                  f"{scenario.description}")
        return 0
    report = run_campaign(seed=args.seed, names=args.scenarios or None,
                          workdir=args.workdir,
                          include_sweep=not args.skip_sweep)
    print(format_campaign(report))
    if args.output:
        path = pathlib.Path(args.output)
        path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"survival report written to {path}")
    return 0 if report["ok"] else 1


def _command_list(_args: argparse.Namespace) -> int:
    print("benchmarks:", ", ".join(sorted(IMAGE_PRESETS)) + ", tabular")
    print("methods:   ", ", ".join(METHODS + ["multitask"]))
    print("selection: ", "random, kmeans, min-var, distant, high-entropy")
    print("replay:    ", "css, dis, rpl (x uniform/similarity sampling)")
    print("objectives:", "simsiam, barlow, byol, vae")
    print("probes:    ", "knn, linear, ridge")
    print("scenarios: ", ", ".join(_scenario_names()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EDSR (ICDE 2024) reproduction — unsupervised continual learning")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="train one method on one benchmark")
    run_parser.add_argument("method", choices=METHODS + ["multitask"])
    run_parser.add_argument("benchmark")
    run_parser.add_argument("--output", help="write the result JSON here")
    _add_scenario_arguments(run_parser)
    _add_config_arguments(run_parser)
    _add_fault_tolerance_arguments(run_parser)
    run_parser.set_defaults(handler=_command_run)

    compare_parser = subparsers.add_parser("compare", help="rank several methods")
    compare_parser.add_argument("benchmark")
    compare_parser.add_argument("--methods", nargs="+",
                                default=["finetune", "lump", "cassle", "edsr"],
                                choices=METHODS + ["multitask"])
    _add_config_arguments(compare_parser)
    _add_fault_tolerance_arguments(compare_parser)
    compare_parser.set_defaults(handler=_command_compare)

    sweep_parser = subparsers.add_parser("sweep", help="run methods x seeds, save JSONs")
    sweep_parser.add_argument("benchmark")
    sweep_parser.add_argument("out_dir")
    sweep_parser.add_argument("--methods", nargs="+",
                              default=["finetune", "cassle", "edsr"],
                              choices=METHODS)
    sweep_parser.add_argument("--seeds", type=int, default=2)
    sweep_parser.add_argument("--resume", action="store_true",
                              help="skip runs whose result JSON already exists")
    _add_config_arguments(sweep_parser)
    sweep_parser.set_defaults(handler=_command_sweep)

    report_parser = subparsers.add_parser("report", help="markdown report from saved results")
    report_parser.add_argument("results_dir")
    report_parser.add_argument("--output", help="write here instead of stdout")
    report_parser.add_argument("--title", default="Experiment report")
    report_parser.set_defaults(handler=_command_report)

    lint_parser = subparsers.add_parser(
        "lint", help="static analysis + gradcheck-coverage audit")
    lint_parser.add_argument("paths", nargs="*", default=["src/repro"],
                             help="files or directories to lint (default: src/repro)")
    lint_parser.add_argument("--select", metavar="CODES",
                             help="comma-separated rule codes (e.g. DET001,AD001)")
    lint_parser.add_argument("--format", default="text",
                             choices=("text", "json", "sarif"),
                             help="report format (default: text)")
    lint_parser.add_argument("--baseline", metavar="FILE",
                             help="accepted-violation baseline (ratchet)")
    lint_parser.add_argument("--update-baseline", action="store_true",
                             help="re-pin the baseline to current violations")
    lint_parser.add_argument("--stats", action="store_true",
                             help="print per-rule counts and cache hit rate")
    lint_parser.add_argument("--cache", metavar="FILE",
                             help="incremental cache file "
                                  "(default: .repro-lint-cache.json)")
    lint_parser.add_argument("--no-cache", action="store_true",
                             help="disable the incremental cache")
    lint_parser.add_argument("--jobs", type=int, metavar="N",
                             help="parallel parse processes")
    lint_parser.add_argument("--tests", metavar="DIR",
                             help="gradcheck test dir (default: tests/tensor)")
    lint_parser.add_argument("--no-coverage", action="store_true",
                             help="skip the gradcheck-coverage audit")
    lint_parser.set_defaults(handler=_command_lint)

    chaos_parser = subparsers.add_parser(
        "chaos", help="seeded fault-injection campaign + crash sweep")
    chaos_parser.add_argument("--seed", type=int, default=0,
                              help="campaign seed; every scenario's fault "
                                   "plan is a pure function of (seed, name)")
    chaos_parser.add_argument("--scenarios", nargs="+", metavar="NAME",
                              help="run only these catalog scenarios "
                                   "(default: all; see --list)")
    chaos_parser.add_argument("--workdir",
                              help="keep run artifacts (checkpoints, event "
                                   "logs) here instead of a temp dir")
    chaos_parser.add_argument("--output", help="write the JSON survival "
                                               "report here")
    chaos_parser.add_argument("--skip-sweep", action="store_true",
                              help="skip the checkpoint crash-consistency "
                                   "sweep")
    chaos_parser.add_argument("--list", dest="list_scenarios",
                              action="store_true",
                              help="list catalog scenarios and exit")
    chaos_parser.set_defaults(handler=_command_chaos)

    bench_parser = subparsers.add_parser(
        "bench", help="op-registry microbenchmarks (fused vs unfused)")
    bench_parser.add_argument("--output", help="write the JSON report here")
    bench_parser.add_argument("--smoke", action="store_true",
                              help="tiny shapes + few repeats (sub-second, for CI)")
    bench_parser.add_argument("--repeats", type=int,
                              help="timed repetitions per bench (default 30, smoke 3)")
    bench_parser.set_defaults(handler=_command_bench)

    list_parser = subparsers.add_parser("list", help="show available components")
    list_parser.set_defaults(handler=_command_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
