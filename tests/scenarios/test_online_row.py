"""The trainer's one loop probes each panel row once.

``online[i]`` is probed right after ``final[i-1]`` on the same weights, so
the trainer reuses the previous final row and probes online only for the
first segment a process trains.  These tests pin the probe count and the
shift identity ``online[1:] == final[:-1]`` bit for bit.
"""

import numpy as np
import pytest

import repro.eval.protocol as protocol
from repro.continual import run_method
from repro.scenarios import run_scenario_method

SEED = 11


@pytest.fixture
def eval_calls(monkeypatch):
    """Counts ``evaluate_task`` calls (``evaluate_tasks`` looks it up)."""
    calls = []
    original = protocol.evaluate_task

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(protocol, "evaluate_task", counted)
    return calls


@pytest.mark.parametrize("scenario,method", [("class_incremental", "edsr"),
                                             ("long_sequence", "finetune")])
def test_stream_run_probes_each_panel_row_once(scenario, method, eval_calls,
                                               fast_config, tiny_sequence):
    config = fast_config.with_overrides(epochs=1, long_cycles=2,
                                        scenario=scenario)
    result, transfer = run_scenario_method(method, tiny_sequence, config,
                                           seed=SEED)
    n_segments, n_panel = transfer.n_rows, transfer.n_eval
    assert len(eval_calls) == n_panel * (n_segments + 1)
    np.testing.assert_array_equal(transfer.online[1:], transfer.final[:-1])
    assert np.isfinite(transfer.online[0]).all()
    assert result.complete


def test_plain_sequence_probes_only_the_result_columns(eval_calls,
                                                       fast_config,
                                                       tiny_sequence):
    config = fast_config.with_overrides(epochs=1)
    run_method("finetune", tiny_sequence, config, seed=SEED)
    n = len(tiny_sequence)
    assert len(eval_calls) == n * (n + 1) // 2
    expected = [task for i in range(n) for task in list(tiny_sequence)[:i + 1]]
    assert all(got is want for got, want in zip(eval_calls, expected))


def test_resumed_run_probes_online_for_its_first_segment(eval_calls,
                                                         fast_config,
                                                         tiny_sequence,
                                                         tmp_path):
    config = fast_config.with_overrides(epochs=1, long_cycles=2,
                                        scenario="long_sequence")
    _, expected = run_scenario_method("finetune", tiny_sequence, config,
                                      seed=SEED, checkpoint_dir=tmp_path)
    n_segments, n_panel = expected.n_rows, expected.n_eval
    for lost in (n_segments - 1, n_segments - 2):
        (tmp_path / f"ckpt-{lost:05d}.json").unlink()
        (tmp_path / f"ckpt-{lost:05d}.npz").unlink()
    eval_calls.clear()

    _, resumed = run_scenario_method("finetune", tiny_sequence, config,
                                     seed=SEED, checkpoint_dir=tmp_path,
                                     resume=True)
    assert len(eval_calls) == n_panel * (2 + 1)
    np.testing.assert_array_equal(resumed.online, expected.online)
    np.testing.assert_array_equal(resumed.final, expected.final)
