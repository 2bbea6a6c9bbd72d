"""One repeat of one workload, in a fresh process.

Run by ``perfbench/run.py``; not meant to be called by hand.  It makes the
calls ``repro run`` makes (``load_image_benchmark``, then ``run_method``, or
``run_scenario_method`` — which calls ``build_stream`` — when a scenario is
set, then the transfer-matrix write), with the probes of
``perfbench/probes.py`` installed, and writes one JSON record to ``--out``
when the run ends.  All times are ``time.monotonic()`` readings, a clock the
parent shares, so ``--t0`` (taken by the parent just before it started this
process) marks the process start.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

from probes import Recorder, clock, install_minimal, install_tracing, peak_rss_kb
from workloads import BENCHMARK, SCALE, WORKLOADS

MEMPLAN_KEYS = ("cache_misses", "helper_allocs", "arena_outputs", "fallback_outputs")


def _cells(matrix) -> list:
    return [[None if math.isnan(v) else float(v) for v in row] for row in matrix.tolist()]


def _event_counts(path: pathlib.Path) -> dict[str, int]:
    counts: dict[str, int] = {}
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            kind = json.loads(line)["kind"]
            counts[kind] = counts.get(kind, 0) + 1
    return counts


def main(argv=None) -> int:
    t_main = clock()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--reference", action="store_true",
                        help="run the workload's parity reference instead")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    workdir = pathlib.Path(args.workdir)

    import repro.parallel  # noqa: F401  (loaded so its callables can be probed)
    import repro.utils.serialization as serialization
    from repro.continual import ContinualConfig, run_method
    from repro.data import load_image_benchmark
    from repro.scenarios import run_scenario_method
    from repro.tensor import memplan

    rec = Recorder()
    if args.trace:
        install_tracing(rec)
    else:
        install_minimal(rec)
    rec.end(rec.begin("process.start", start=args.t0), end=t_main)
    rec.end(rec.begin("setup.import", start=t_main))

    overrides = dict(workload.overrides)
    if args.reference:
        overrides.update(workload.reference)
    scenario = overrides.get("scenario")
    if scenario is not None:
        overrides["scenario_seed"] = args.seed
    config = ContinualConfig().with_overrides(**overrides)
    checkpoint_dir = workdir / "checkpoints" if workload.checkpoint else None
    memplan_before = memplan.stats_snapshot()

    span = rec.begin("data.build")
    sequence = load_image_benchmark(BENCHMARK, SCALE)
    rec.end(span)
    span = rec.begin("run")
    transfer = None
    if scenario is not None:
        result, transfer = run_scenario_method(
            workload.method, sequence, config, seed=args.seed,
            checkpoint_dir=checkpoint_dir)
    else:
        result = run_method(workload.method, sequence, config, seed=args.seed,
                            checkpoint_dir=checkpoint_dir)
    rec.end(span)
    if transfer is not None:
        serialization.save_transfer_matrix(transfer, workdir / "transfer-matrix.json")
    t_end = clock()

    memplan_after = memplan.stats_snapshot()
    tape = {"captures": 0, "replays": 0, "eager": 0}
    for taped in rec.tapes.values():
        for key in tape:
            tape[key] += taped.stats[key]
    record = {
        "t0": args.t0,
        "first_step": rec.first_step,
        "end": t_end,
        "steps": rec.steps,
        "peak_rss_kb": peak_rss_kb(),
        "worker_peak_kb": rec.worker_peak_kb,
        "acc": result.acc(),
        "fgt": result.fgt(),
        "matrix": _cells(result.accuracy_matrix),
        "transfer": None if transfer is None else {
            "online": _cells(transfer.online), "final": _cells(transfer.final)},
        "memplan": {k: memplan_after[k] - memplan_before[k] for k in MEMPLAN_KEYS},
        "tape": tape,
        "counters": rec.counters,
        "events": ({} if checkpoint_dir is None
                   else _event_counts(checkpoint_dir / "events.jsonl")),
        "spans": rec.spans if args.trace else [],
    }
    pathlib.Path(args.out).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
