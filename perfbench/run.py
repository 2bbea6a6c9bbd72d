"""Whole-run benchmark of ``repro run`` on the conv backbone at CI scale.

Usage, from the repository root::

    python3 perfbench/run.py --workload edsr-ci --seed 0 --seconds 30 --trace 0

Each repeat is a fresh process (``perfbench/repeat.py``) that makes the calls
``repro run`` makes.  Repeats run back to back until ``--seconds`` is spent
(at least two).  With ``--trace 0`` the end-to-end metrics are measured with
only step timestamps installed; with ``--trace 1`` repeats alternate
untraced and traced, and the per-layer metrics come from the traced ones.

Every repeat's outputs are checked: the accuracy matrices are finite and
identical across repeats, traced or not, and across invocations on the same
source tree and seed; a workload with a parity reference must match it.  A
repeat that crashes, times out or fails a check counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full report
(host facts, every repeat, the spans of traced repeats) is written under
``.perfbench/`` in the repository root.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: Repeats per invocation, whatever ``--seconds`` says: medians and the
#: cross-repeat identity check need at least two.
MIN_REPEATS = 2
#: No repeat starts after this many seconds, and none runs past the cap.
START_CAP_S = 120.0
HARD_CAP_S = 160.0

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "step_ms.p50": "ms",
    "step_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "acc_pct": "%",
}
# ``fgt_pct`` and ``failed_pct`` are reported with these but kept out of the
# JSON line: forgetting can be zero or negative, and failures are carried
# by its ``failed``/``attempted`` keys.

SPAN_TIMES = {
    "data.build_s": "data.build",
    "data.loader_s": "data.loader",
    "scenarios.stream_build_s": "scenarios.stream_build",
    "augment.s": "augment",
    "continual.forward_s": "continual.forward",
    "continual.boundary_s": "continual.boundary",
    "tensor.backward_s": "tensor.backward",
    "tensor.tape_s": "tensor.tape",
    "optim.step_s": "optim.step",
    "optim.zero_grad_s": "optim.zero_grad",
    "replay.loss_s": "replay.loss",
    "replay.noise_scales_s": "replay.noise_scales",
    "selection.select_s": "selection.select",
    "eval.s": "eval",
    "eval.extract_s": "eval.extract",
    "eval.probe_s": "eval.probe",
    "runtime.checkpoint_s": "runtime.checkpoint",
    "utils.transfer_save_s": "utils.transfer_save",
    "parallel.pool_start_s": "parallel.pool_start",
    "parallel.loss_backward_s": "parallel.loss_backward",
}
SPAN_CALLS = {
    "augment.calls": "augment",
    "continual.forward_calls": "continual.forward",
    "replay.calls": "replay.loss",
}
COUNTERS = {
    "eval.calls": "eval.calls",
    "eval.extract_rows": "eval.extract_rows",
    "runtime.checkpoint_bytes": "runtime.checkpoint_bytes",
    "parallel.degraded_events": "event.pool-degraded",
    "parallel.fallback_events": "event.shard-fallback",
}
PER_LAYER = {
    **{name: "s" for name in SPAN_TIMES},
    **{name: "count" for name in SPAN_CALLS},
    **{name: "count" for name in COUNTERS},
    "runtime.checkpoint_bytes": "bytes",
    "continual.step_self_s": "s",
    "tensor.tape_captures": "count",
    "tensor.tape_replay_ratio": "ratio",
    "tensor.memplan.cache_misses": "count",
    "tensor.memplan.helper_allocs": "count",
    "tensor.memplan.arena_outputs": "count",
    "tensor.memplan.fallback_outputs": "count",
    "runtime.checkpoint_saves": "count",
    "runtime.checkpoint_failed": "count",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.remainder_s": "s",
    "trace.spans": "count",
}


# ----------------------------------------------------------------------
# Host facts
# ----------------------------------------------------------------------
def host_facts() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over all CPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def source_digest() -> str:
    """Digest of the program's source tree: outputs are cached under it."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# Running repeats
# ----------------------------------------------------------------------
def run_repeat(workload: str, seed: int, traced: bool, reference: bool,
               index: int, timeout: float) -> dict:
    """One fresh-process repeat; returns its record, or one with ``error``."""
    workdir = OUT / "tmp" / f"{workload}-s{seed}-{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    out = workdir / "record.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    load_before = os.getloadavg()[0]
    steal_before = steal_seconds()
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "repeat.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--t0", repr(t0),
           "--workdir", str(workdir), "--out", str(out)]
    if reference:
        cmd.append("--reference")
    base = {"index": index, "traced": traced, "reference": reference,
            "load_before": load_before}
    try:
        # A session of its own, so a timeout also kills any shard workers.
        with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              start_new_session=True) as proc:
            try:
                _, stderr = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                return {**base, "error": f"timed out after {timeout:.0f} s"}
        if proc.returncode != 0:
            tail = stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            return {**base, "error": f"exit {proc.returncode}: {tail[0]}"}
        record = json.loads(out.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(base, load_after=os.getloadavg()[0],
                  steal_s=steal_seconds() - steal_before)
    return record


def run_all(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    start = time.monotonic()
    records = []
    if WORKLOADS[workload].reference is not None:
        records.append(run_repeat(workload, seed, False, True, 0,
                                  HARD_CAP_S - (time.monotonic() - start)))
    durations = []
    while True:
        elapsed = time.monotonic() - start
        measured = sum(1 for r in records if not r["reference"])
        estimate = statistics.median(durations) if durations else 0.0
        if measured >= MIN_REPEATS and (elapsed + estimate > seconds
                                        or elapsed > START_CAP_S):
            break
        traced = trace and measured % 2 == 1
        record = run_repeat(workload, seed, traced, False, len(records),
                            max(1.0, HARD_CAP_S - elapsed))
        records.append(record)
        durations.append(time.monotonic() - start - elapsed)
    return records


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def fingerprint(record: dict) -> str:
    """The full-precision outputs of a repeat, as one comparable string."""
    return json.dumps({k: record[k] for k in ("acc", "fgt", "matrix", "transfer")},
                      sort_keys=True)


def _finite(rows) -> bool:
    """Every recorded cell is finite (unrecorded cells are ``None``)."""
    recorded = [cell for row in rows for cell in row if cell is not None]
    return bool(recorded) and all(math.isfinite(cell) for cell in recorded)


def check_outputs(records: list[dict], cached: str | None) -> list[str]:
    """Mark failing repeats with ``error``; returns the problems found.

    The reference for identity is, in order: the fingerprint cached by an
    earlier invocation on the same source tree and seed, else the first
    finished repeat.
    """
    problems = []
    for record in records:
        if "error" in record:
            continue
        matrices = [record["matrix"]]
        if record["transfer"] is not None:
            matrices += [record["transfer"]["online"], record["transfer"]["final"]]
        if not all(_finite(m) for m in matrices):
            record["error"] = "accuracy matrix not finite"
    done = [r for r in records if "error" not in r]
    expected = cached
    if expected is None and done:
        expected = fingerprint(done[0])
    for record in done:
        if fingerprint(record) != expected:
            kind = "reference" if record["reference"] else "repeat"
            record["error"] = (f"{kind} outputs differ from "
                               f"{'the cached run' if cached else 'the first repeat'}")
    for record in records:
        if "error" in record:
            problems.append(f"repeat {record['index']}: {record['error']}")
    return problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def step_intervals_ms(record: dict) -> list[float]:
    """Optimizer-step intervals that do not span a task boundary."""
    steps = record["steps"]
    return [1e3 * (t1 - t0) for (t0, b0), (t1, b1) in zip(steps, steps[1:])
            if b0 == b1]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def run_seconds(record: dict) -> float:
    return record["end"] - record["t0"]


def end_to_end(records: list[dict]) -> dict[str, tuple[float, str, int]]:
    """``name -> (value, unit, samples)`` over the finished untraced repeats."""
    done = [r for r in records
            if "error" not in r and not r["traced"] and not r["reference"]]
    attempted = len(records)
    failed = sum(1 for r in records if "error" in r)
    metrics = {"failed_pct": (100.0 * failed / attempted, "%", attempted)}
    if not done:
        return metrics
    intervals = [ms for r in done for ms in step_intervals_ms(r)]
    rss = [(r["peak_rss_kb"] + sum(r["worker_peak_kb"])) * 1024 / 1e6 for r in done]
    metrics.update({
        "run_s": (statistics.median(run_seconds(r) for r in done), "s", len(done)),
        "setup_s": (statistics.median(r["first_step"] - r["t0"] for r in done),
                    "s", len(done)),
        "step_ms.p50": (percentile(intervals, 50), "ms", len(intervals)),
        "step_ms.p90": (percentile(intervals, 90), "ms", len(intervals)),
        "peak_rss_mb": (statistics.median(rss), "MB", len(done)),
        "acc_pct": (100.0 * done[0]["acc"], "%", len(done)),
        "fgt_pct": (100.0 * done[0]["fgt"], "%", len(done)),
    })
    return metrics


def span_table(spans: list) -> tuple[dict, dict, dict]:
    """Per span name: outermost total time, outermost count, self time.

    A span nested in a span of the same name (a subclass method calling its
    parent's) is not counted again.  Self time is the span's duration minus
    the part its child spans cover; children run one after another on one
    thread, so that part is the sum of their durations.
    """
    children_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            children_time[parent] += end - start
    total, calls, self_time = {}, {}, {}
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        self_time[name] = self_time.get(name, 0.0) + duration - children_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total[name] = total.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
    return total, calls, self_time


def layer_metrics(record: dict) -> dict[str, float]:
    """Every per-layer metric of one traced repeat."""
    total, calls, self_time = span_table(record["spans"])
    values = {name: total.get(span, 0.0) for name, span in SPAN_TIMES.items()}
    values.update({name: float(calls.get(span, 0)) for name, span in SPAN_CALLS.items()})
    values.update({name: float(record["counters"].get(key, 0))
                   for name, key in COUNTERS.items()})
    tape = record["tape"]
    tape_calls = tape["captures"] + tape["replays"] + tape["eager"]
    covered = sum(t for name, t in self_time.items() if name != "run")
    values.update({
        "continual.step_self_s": self_time.get("continual.step", 0.0),
        "tensor.tape_captures": float(tape["captures"]),
        "tensor.tape_replay_ratio": tape["replays"] / tape_calls if tape_calls else 0.0,
        "runtime.checkpoint_saves": float(record["events"].get("checkpoint", 0)),
        "runtime.checkpoint_failed": float(record["events"].get("checkpoint-failed", 0)),
        "trace.run_s": run_seconds(record),
        "trace.remainder_s": run_seconds(record) - covered,
        "trace.spans": float(len(record["spans"])),
    })
    values.update({f"tensor.memplan.{key}": float(value)
                   for key, value in record["memplan"].items()})
    return values


def per_layer(records: list[dict]) -> dict[str, tuple[float, str, int]]:
    """Medians of the per-layer metrics over the finished traced repeats."""
    done = [r for r in records if "error" not in r and not r["reference"]]
    traced = [layer_metrics(r) for r in done if r["traced"]]
    untraced = [run_seconds(r) for r in done if not r["traced"]]
    if not traced or not untraced:
        return {}
    metrics = {name: (statistics.median(v[name] for v in traced), PER_LAYER[name],
                      len(traced))
               for name in traced[0]}
    untraced_s = statistics.median(untraced)
    metrics["trace.untraced_run_s"] = (untraced_s, "s", len(untraced))
    metrics["trace.overhead_s"] = (metrics["trace.run_s"][0] - untraced_s, "s",
                                   len(traced) + len(untraced))
    return metrics


def self_time_breakdown(records: list[dict]) -> list[tuple[str, float]]:
    """Median self time per span name over traced repeats, largest first."""
    tables = [span_table(r["spans"])[2] for r in records
              if "error" not in r and r["traced"] and not r["reference"]]
    names = {name for table in tables for name in table if name != "run"}
    rows = [(name, statistics.median(t.get(name, 0.0) for t in tables)) for name in names]
    return sorted(rows, key=lambda row: -row[1])


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def print_report(args, host: dict, records: list[dict], e2e: dict, layers: dict,
                 problems: list[str]) -> None:
    workload = WORKLOADS[args.workload]
    print(f"perfbench {args.workload}: {workload.cli()} --seed {args.seed}"
          f"  (trace {args.trace}, {args.seconds:g} s)")
    env = " ".join(f"{k}={v if v is not None else 'unset'}"
                   for k, v in host["blas_env"].items())
    print(f"host: cpus={host['cpus']} usable={host['cpus_usable']} "
          f"python={host['python']} numpy={host['numpy']} "
          f"blas={host['blas']} {host['blas_version']}  {env}")
    for r in records:
        load = f"load {r['load_before']:.2f}"
        if "load_after" in r:
            load += f" -> {r['load_after']:.2f}"
        flag = "  LOADED" if r.get("loaded") else ""
        kind = "reference" if r["reference"] else ("traced" if r["traced"] else "untraced")
        if "error" in r:
            print(f"  repeat {r['index']} {kind}: FAILED {r['error']}  {load}{flag}")
        else:
            print(f"  repeat {r['index']} {kind}: run {run_seconds(r):.3f} s  "
                  f"setup {r['first_step'] - r['t0']:.3f} s  "
                  f"steal {r['steal_s']:.2f} s  {load}{flag}")
    for name, (value, unit, samples) in e2e.items():
        print(f"  {name:<14} {value:12.4f} {unit:<3} (n={samples})")
    if layers:
        for name, (value, unit, samples) in sorted(layers.items()):
            print(f"  {name:<30} {value:14.4f} {unit:<5} (n={samples})")
        breakdown = self_time_breakdown(records)
        run_s = layers["trace.run_s"][0]
        print(f"  traced run_s {run_s:.3f} s by self time:")
        for name, seconds in breakdown:
            print(f"    {name:<24} {seconds:9.3f} s  {100 * seconds / run_s:5.1f}%")
        remainder = layers["trace.remainder_s"][0]
        print(f"    {'(remainder)':<24} {remainder:9.3f} s  {100 * remainder / run_s:5.1f}%")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")


def result_line(records: list[dict], e2e: dict, layers: dict, trace: bool) -> dict:
    """The JSON result: the end-to-end metrics, or the per-layer ones if traced."""
    wanted, source = (PER_LAYER, layers) if trace else (END_TO_END, e2e)
    failed = sum(1 for r in records if "error" in r)
    return {
        "correct": failed == 0 and all(name in source for name in wanted),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": source[name][0], "unit": unit}
                    for name, unit in wanted.items() if name in source},
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    host = host_facts()
    records = run_all(args.workload, args.seed, args.seconds, bool(args.trace))
    for record in records:
        record["loaded"] = max(record["load_before"],
                               record.get("load_after", 0.0)) > host["cpus"]

    cache = OUT / "outputs" / f"{source_digest()}-{args.workload}-s{args.seed}.json"
    cached = cache.read_text(encoding="utf-8") if cache.exists() else None
    problems = check_outputs(records, cached)
    done = [r for r in records if "error" not in r]
    if cached is None and done and not problems:
        cache.parent.mkdir(parents=True, exist_ok=True)
        cache.write_text(fingerprint(done[0]), encoding="utf-8")

    e2e = end_to_end(records)
    layers = per_layer(records) if args.trace else {}
    print_report(args, host, records, e2e, layers, problems)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"report-{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "problems": problems,
        "end_to_end": e2e, "per_layer": layers,
        "repeats": [{k: v for k, v in r.items() if k != "spans"} for r in records],
    }, indent=1), encoding="utf-8")
    if args.trace:
        with open(OUT / f"trace-{stem}.jsonl", "w", encoding="utf-8") as handle:
            for r in records:
                for name, start, end, parent in r.get("spans", []):
                    handle.write(json.dumps({"run": r["index"], "name": name,
                                             "start": start, "end": end,
                                             "parent": parent}) + "\n")

    line = result_line(records, e2e, layers, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1

if __name__ == "__main__":
    sys.exit(main())
