"""The chaos campaign: seeded failure scenarios run end-to-end.

Each catalog scenario (:mod:`repro.faults.scenarios`) is executed as a
real — tiny — continual run through :class:`ContinualTrainer` with its
fault plan armed, then classified:

``survived``
    the run completed *and* the final checkpoint restores to exactly the
    returned result (timing excluded);
``clean-abort``
    the guardrail ladder aborted with :class:`TrainingDiverged` and wrote
    its structured failure report;
``resume-verified``
    the injected crash killed the run, and a fresh trainer resumed from
    the surviving checkpoints to a result bit-for-bit equal to an
    uninjected reference run;
``FAILED``
    anything else — the report entry carries the scenario's seed and full
    fault plan, so the failure replays exactly via
    ``run_scenario(name, seed=...)``.

Scenarios with ``verify="identical"`` additionally require the injected
run's result to equal the uninjected reference bit-for-bit (the
degradation scenario compares against the uninjected ``workers=1`` run).
:func:`run_campaign` bundles the scenario entries with a crash-consistency
sweep (:mod:`repro.faults.crashsweep`) into one JSON survival report —
the ``repro chaos`` CLI command is a thin wrapper over it.
"""

from __future__ import annotations

import pathlib
import tempfile
from collections import Counter

from repro.continual.config import ContinualConfig
from repro.continual.trainer import ContinualTrainer, build_trainer
from repro.data.splits import TaskSequence, class_incremental_split
from repro.data.synthetic import SyntheticImageConfig, make_image_dataset
from repro.faults import plane
from repro.faults.crashsweep import run_sweep, states_equal
from repro.faults.scenarios import SCENARIOS, Scenario, build_plan, scenario_names
from repro.runtime.guardrail import GuardrailPolicy, TrainingDiverged

__all__ = ["format_campaign", "run_campaign", "run_scenario"]

#: The method every scenario trains (shard- and tape-safe, cheapest).
METHOD = "finetune"


def chaos_sequence() -> TaskSequence:
    """The fixed tiny benchmark every scenario runs: 3 tasks, 3 steps each.

    Scenario hit ranges (:mod:`repro.faults.scenarios`) are tuned to this
    shape — 24 train samples per task, batch 8, one epoch — so faults
    always land inside the run.
    """
    config = SyntheticImageConfig(
        n_classes=6, train_per_class=12, test_per_class=6,
        image_size=8, seed=11, name="chaos")
    train, test = make_image_dataset(config)
    return class_incremental_split(train, test, 3)


def chaos_config(workers: int | None = None,
                 use_tape: bool = True) -> ContinualConfig:
    """The run configuration scenarios train under (seconds per scenario)."""
    return ContinualConfig(
        epochs=1, batch_size=8, representation_dim=16,
        memory_budget=12, replay_batch_size=8, noise_neighbors=5, knn_k=5,
        workers=workers, use_tape=use_tape)


def _policy(scenario: Scenario) -> GuardrailPolicy:
    overrides = dict(scenario.policy_overrides)
    overrides.setdefault("anomaly_mode", scenario.anomaly)
    return GuardrailPolicy(**overrides)


def _run_target(scenario: Scenario, sequence: TaskSequence,
                config: ContinualConfig):
    """What the trainer consumes: the sharp sequence, or — for scenarios
    with a ``stream`` — the registry-built stream over it.

    Streams are pure functions of ``(scenario_seed, params)``, so every
    leg (injected, resume, reference) rebuilds the identical stream.
    """
    if scenario.stream is None:
        return sequence
    from repro.scenarios import build_stream

    return build_stream(scenario.stream, sequence,
                        config.with_overrides(scenario=scenario.stream))


def _build_trainer(config: ContinualConfig, seed: int, sequence: TaskSequence,
                   checkpoint_dir, policy: GuardrailPolicy) -> ContinualTrainer:
    return build_trainer(METHOD, config, sequence[0].train.x.shape[1:], seed,
                         checkpoint_dir=checkpoint_dir, guardrails=policy)


def _comparable(result_state: dict) -> dict:
    """A result state with wall-clock timing dropped (never bit-stable)."""
    return {key: value for key, value in result_state.items()
            if key != "elapsed_seconds"}


def _reference_state(scenario: Scenario, seed: int, sequence: TaskSequence,
                     cache: dict) -> dict:
    """The uninjected reference result for ``scenario``'s run shape.

    Cached per (workers, use_tape, anomaly, stream) — the knobs that
    select the dispatch path and the stream the trainer consumes;
    scenarios sharing a shape share the reference.
    """
    workers = (scenario.reference_workers
               if scenario.reference_workers is not None else scenario.workers)
    key = (workers, scenario.use_tape, scenario.anomaly, scenario.stream)
    if key not in cache:
        config = chaos_config(workers=workers, use_tape=scenario.use_tape)
        policy = GuardrailPolicy(anomaly_mode=scenario.anomaly)
        trainer = _build_trainer(config, seed, sequence, None, policy)
        target = _run_target(scenario, sequence, config)
        cache[key] = _comparable(trainer.run(target).state_dict())
    return cache[key]


def _resume_leg(scenario: Scenario, seed: int, sequence: TaskSequence,
                run_dir, policy: GuardrailPolicy, config: ContinualConfig,
                references: dict, crash: plane.InjectedCrash):
    """After an injected crash: resume unfaulted, demand bit-for-bit."""
    try:
        trainer = _build_trainer(config, seed, sequence, run_dir, policy)
        result = trainer.run(_run_target(scenario, sequence, config),
                             resume=True)
    except Exception as exc:  # noqa: BLE001 - classified, not propagated
        return "FAILED", (f"resume after crash failed: "
                          f"{type(exc).__name__}: {exc}"), None
    reference = _reference_state(scenario, seed, sequence, references)
    if states_equal(reference, _comparable(result.state_dict())):
        return ("resume-verified",
                f"crashed at {crash.site}, resumed bit-for-bit", result)
    return ("FAILED",
            "resumed result diverges from the uninterrupted run", result)


def run_scenario(name: str, seed: int = 0,
                 workdir: str | pathlib.Path = ".",
                 sequence: TaskSequence | None = None,
                 references: dict | None = None) -> dict:
    """Run one scenario; returns its JSON-safe report entry.

    Deterministic end to end: the fault plan is a pure function of
    ``(seed, name)`` and the run itself is seeded, so a FAILED entry
    reproduces from exactly the two values it records.
    """
    scenario = SCENARIOS[name]
    if sequence is None:
        sequence = chaos_sequence()
    if references is None:
        references = {}
    plan = build_plan(seed, name)
    run_dir = pathlib.Path(workdir) / name
    config = chaos_config(workers=scenario.workers, use_tape=scenario.use_tape)
    policy = _policy(scenario)
    trainer = _build_trainer(config, seed, sequence, run_dir, policy)

    result = None
    detail = ""
    try:
        with plane.armed(plan):
            result = trainer.run(_run_target(scenario, sequence, config))
        outcome = "survived"
    except TrainingDiverged as exc:
        outcome = "clean-abort"
        detail = str(exc)
        if exc.report_path is None or not pathlib.Path(exc.report_path).exists():
            outcome = "FAILED"
            detail = "aborted without writing a failure report"
    except plane.InjectedCrash as crash:
        outcome, detail, result = _resume_leg(
            scenario, seed, sequence, run_dir, policy, config, references,
            crash)
    except Exception as exc:  # noqa: BLE001 - classified, not propagated
        outcome = "FAILED"
        detail = f"{type(exc).__name__}: {exc}"

    if outcome == "survived":
        loaded = trainer.checkpoints.load_latest()
        if loaded is None or not states_equal(
                _comparable(loaded.state["result"]),
                _comparable(result.state_dict())):
            outcome = "FAILED"
            detail = "final checkpoint does not restore to the run result"
        elif scenario.verify == "identical":
            reference = _reference_state(scenario, seed, sequence, references)
            if not states_equal(reference, _comparable(result.state_dict())):
                outcome = "FAILED"
                detail = "result differs from the uninjected reference run"

    return {
        "scenario": name,
        "seed": seed,
        "expected": scenario.expect,
        "outcome": outcome,
        "ok": outcome == scenario.expect,
        "detail": detail,
        "plan": plan.describe(),
    }


def run_campaign(seed: int = 0, names: list[str] | None = None,
                 workdir: str | pathlib.Path | None = None,
                 include_sweep: bool = True) -> dict:
    """Run scenarios (default: the full catalog) plus the crash sweep.

    Returns the JSON survival report; ``report["ok"]`` is true only when
    every scenario met its expected outcome and (when included) the crash
    sweep covered every registered boundary without a corrupt load.
    """
    if names is None:
        names = scenario_names()
    own_tmp = None
    if workdir is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        workdir = own_tmp.name
    try:
        sequence = chaos_sequence()
        references: dict = {}
        entries = [run_scenario(name, seed=seed, workdir=workdir,
                                sequence=sequence, references=references)
                   for name in names]
        report = {
            "seed": seed,
            "scenarios": entries,
            "summary": dict(Counter(entry["outcome"] for entry in entries)),
            "ok": all(entry["ok"] for entry in entries),
        }
        if include_sweep:
            sweep = run_sweep(pathlib.Path(workdir) / "crash-sweep", seed=seed)
            report["crash_sweep"] = sweep
            report["ok"] = report["ok"] and sweep["ok"]
        return report
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()


def format_campaign(report: dict) -> str:
    """Human-readable summary table of a campaign report."""
    from repro.utils import format_table

    rows = [[entry["scenario"], entry["expected"], entry["outcome"],
             "ok" if entry["ok"] else "FAIL", entry["detail"][:60]]
            for entry in report["scenarios"]]
    table = format_table(["scenario", "expected", "outcome", "", "detail"],
                         rows, title=f"chaos campaign (seed {report['seed']})")
    lines = [table]
    sweep = report.get("crash_sweep")
    if sweep is not None:
        bad = [case for case in sweep["cases"] if not case["ok"]]
        lines.append(
            f"crash sweep: {len(sweep['cases'])} boundaries, "
            f"coverage {'complete' if sweep['coverage']['complete'] else 'INCOMPLETE'}, "
            f"{len(bad)} failure(s)")
    lines.append(f"overall: {'OK' if report['ok'] else 'FAILED'}")
    return "\n".join(lines)
