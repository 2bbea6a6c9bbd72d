"""Fast self-test of the benchmark runner: no workload is trained.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _spans() -> list[list]:
    """A small span tree in the shape ``repeat.py`` records."""
    names = [
        ("process.start", 0.0, 0.1, -1),
        ("setup.import", 0.1, 0.5, -1),
        ("data.build", 0.5, 0.6, -1),
        ("run", 0.6, 3.0, -1),
        ("continual.boundary", 0.7, 0.8, 3),
        ("data.loader", 0.8, 0.81, 3),
        ("continual.step", 0.81, 1.81, 3),
        ("augment", 0.81, 0.91, 6),
        ("continual.forward", 0.91, 1.51, 6),
        ("continual.forward", 0.95, 1.45, 8),
        ("replay.loss", 1.2, 1.4, 9),
        ("tensor.backward", 1.51, 1.71, 6),
        ("optim.step", 1.71, 1.8, 6),
        ("eval", 2.0, 2.9, 3),
        ("eval", 2.0, 2.4, 13),
        ("eval.extract", 2.0, 2.3, 14),
        ("eval.probe", 2.3, 2.4, 14),
    ]
    return [list(span) for span in names]


def _record(index: int, traced: bool = False, reference: bool = False,
            acc: float = 0.9, matrix=None) -> dict:
    return {
        "index": index, "traced": traced, "reference": reference,
        "load_before": 0.5, "load_after": 0.6, "steal_s": 0.0,
        "t0": 0.0, "first_step": 0.81, "end": 3.0 + 0.01 * index,
        "steps": [(1.0, 1), (1.1, 1), (1.25, 1), (2.0, 3), (2.1, 3)],
        "peak_rss_kb": 80_000, "worker_peak_kb": [40_000] if reference else [],
        "acc": acc, "fgt": 0.03,
        "matrix": matrix or [[0.9, None], [0.8, 1.0]],
        "transfer": None,
        "memplan": {"cache_misses": 3, "helper_allocs": 0,
                    "arena_outputs": 10, "fallback_outputs": 2},
        "tape": {"captures": 1, "replays": 3, "eager": 0},
        "counters": {"eval.calls": 2, "eval.extract_rows": 240},
        "events": {"checkpoint": 2},
        "spans": _spans() if traced else [],
    }


def test_spec_matches_the_runner():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(trace):
    records = [_record(0), _record(1, traced=trace), _record(2)]
    e2e = run.end_to_end(records)
    layers = run.per_layer(records) if trace else {}
    line = run.result_line(records, e2e, layers, trace)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert line["correct"] is True
    assert line["attempted"] == 3 and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        emitted = line["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
    json.dumps(line, allow_nan=False)


def test_step_intervals_skip_task_boundaries():
    ms = run.step_intervals_ms(_record(0))
    assert ms == pytest.approx([100.0, 150.0, 100.0])


def test_self_time_and_remainder():
    total, calls, self_time = run.span_table(_spans())
    # The nested continual.forward (a subclass calling its parent) counts once.
    assert calls["continual.forward"] == 1
    assert total["continual.forward"] == pytest.approx(0.6)
    assert calls["eval"] == 1 and total["eval"] == pytest.approx(0.9)
    assert self_time["continual.step"] == pytest.approx(1.0 - 0.1 - 0.6 - 0.2 - 0.09)
    values = run.layer_metrics(_record(0, traced=True))
    covered = 0.1 + 0.4 + 0.1 + 0.1 + 0.01 + 1.0 + 0.9
    assert values["trace.remainder_s"] == pytest.approx(3.0 - covered)
    assert values["tensor.tape_replay_ratio"] == pytest.approx(0.75)


def test_output_checks_fail_the_odd_repeat_out():
    records = [_record(0), _record(1, acc=0.8), _record(2),
               _record(3, matrix=[[float("nan"), None], [0.8, 1.0]]),
               {"index": 4, "traced": False, "reference": False,
                "load_before": 0.5, "error": "timed out after 170 s"}]
    problems = run.check_outputs(records, cached=None)
    assert [r["index"] for r in records if "error" in r] == [1, 3, 4]
    assert len(problems) == 3
    line = run.result_line(records, run.end_to_end(records), {}, False)
    assert line["correct"] is False and line["failed"] == 3
    assert run.end_to_end(records)["failed_pct"][0] == pytest.approx(60.0)


def test_cached_fingerprint_is_the_reference():
    records = [_record(0), _record(1)]
    other = run.fingerprint(_record(0, acc=0.5))
    run.check_outputs(records, cached=other)
    assert all("error" in r for r in records)


def test_runner_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "edsr-ci",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
