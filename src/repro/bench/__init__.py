"""Microbenchmark harness for the op-registry execution engine.

``python -m repro bench`` runs the suite; see :mod:`repro.bench.suites`
for what is measured and :mod:`repro.bench.harness` for how.  The committed
baselines live at the repo root (``BENCH_pr3.json``, ``BENCH_pr4.json``,
``BENCH_pr5.json``, ``BENCH_pr8.json``, ``BENCH_pr9.json``).
"""

from repro.bench.harness import BenchTiming, speedup, time_callable
from repro.bench.suites import (
    MEMORY_BENCH_STEPS,
    PRE_REFACTOR_REFERENCE,
    PROBE_BENCH_WORKER_COUNTS,
    PROBE_MAX_ACCURACY_DELTA,
    REQUIRED_SPEEDUP,
    RIDGE_REQUIRED_SPEEDUP,
    SHARDING_BENCH_WORKERS,
    SHARDING_REQUIRED_SPEEDUP,
    TAPE_REQUIRED_SPEEDUP,
    build_ssl_step,
    eval_probe_bench,
    format_report,
    layer_benches,
    memory_bench,
    op_microbenches,
    run_suite,
    sharding_bench,
    ssl_step_bench,
    tape_replay_bench,
)

__all__ = [
    "MEMORY_BENCH_STEPS",
    "PRE_REFACTOR_REFERENCE",
    "PROBE_BENCH_WORKER_COUNTS",
    "PROBE_MAX_ACCURACY_DELTA",
    "REQUIRED_SPEEDUP",
    "RIDGE_REQUIRED_SPEEDUP",
    "SHARDING_BENCH_WORKERS",
    "SHARDING_REQUIRED_SPEEDUP",
    "TAPE_REQUIRED_SPEEDUP",
    "BenchTiming",
    "build_ssl_step",
    "eval_probe_bench",
    "format_report",
    "layer_benches",
    "memory_bench",
    "op_microbenches",
    "run_suite",
    "sharding_bench",
    "speedup",
    "ssl_step_bench",
    "tape_replay_bench",
    "time_callable",
]
