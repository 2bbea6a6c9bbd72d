"""Kill-and-resume integration tests (acceptance criteria of the
fault-tolerance layer).

A run checkpointed after task ``k`` and resumed in a fresh process must
produce a bit-for-bit identical accuracy matrix and final weights compared
to the uninterrupted run — for every method whose state moves: replay
buffers (DER's stored targets, EDSR's noise scales and old
representations, LUMP, Lin), frozen teachers (CaSSLe, PFR, Lin, CURL) and
distillation heads.  An injected NaN
loss must trigger the guardrail recovery ladder: skip for transient
poisons, restore + LR backoff + abort for persistent ones.
"""

import json

import numpy as np
import pytest

from repro.continual import ContinualTrainer, build_objective, make_method
from repro.continual.finetune import Finetune
from repro.runtime import GuardrailPolicy, TrainingDiverged

SEED = 20240


def fresh_trainer(name, config, sequence, **kwargs):
    """Method + trainer rebuilt from scratch, as after a process restart."""
    if name == "curl":  # generative replay needs the VAE objective
        config = config.with_overrides(objective="vae")
    rng = np.random.default_rng(SEED)
    objective = build_objective(config, sequence[0].train.x.shape[1:], rng)
    method = make_method(name, objective, config, rng)
    return ContinualTrainer(method, config, rng, verbose=False, **kwargs)


def assert_same_weights(a, b):
    for (name, pa), (_n, pb) in zip(a.objective.named_parameters(),
                                    b.objective.named_parameters()):
        np.testing.assert_array_equal(pa.data, pb.data, err_msg=name)


class TestKillAndResume:
    @pytest.mark.parametrize("name", ["edsr", "der", "lump", "lin", "cassle",
                                      "pfr", "curl"])
    def test_resume_is_bit_for_bit(self, name, fast_config, tiny_sequence,
                                   tmp_path):
        baseline = fresh_trainer(name, fast_config, tiny_sequence)
        expected = baseline.run(tiny_sequence)

        # Checkpointed run, then a simulated crash: the newest checkpoint
        # (written after the final task) is lost.
        crashed = fresh_trainer(name, fast_config, tiny_sequence,
                                checkpoint_dir=tmp_path)
        crashed.run(tiny_sequence)
        last = len(tiny_sequence) - 1
        (tmp_path / f"ckpt-{last:05d}.json").unlink()
        (tmp_path / f"ckpt-{last:05d}.npz").unlink()

        resumed = fresh_trainer(name, fast_config, tiny_sequence,
                                checkpoint_dir=tmp_path)
        result = resumed.run(tiny_sequence, resume=True)

        np.testing.assert_array_equal(result.accuracy_matrix,
                                      expected.accuracy_matrix)
        assert_same_weights(resumed.method, baseline.method)
        kinds = [e["kind"] for e in resumed.log.events]
        assert "resume" in kinds

    @pytest.mark.parametrize("name", ["edsr", "der"])
    def test_corrupt_newest_checkpoint_falls_back(self, name, fast_config,
                                                  tiny_sequence, tmp_path):
        baseline = fresh_trainer(name, fast_config, tiny_sequence)
        expected = baseline.run(tiny_sequence)

        crashed = fresh_trainer(name, fast_config, tiny_sequence,
                                checkpoint_dir=tmp_path)
        crashed.run(tiny_sequence)
        last = len(tiny_sequence) - 1
        # Torn write: manifest exists but is garbage.
        (tmp_path / f"ckpt-{last:05d}.json").write_text("{torn", encoding="utf-8")

        resumed = fresh_trainer(name, fast_config, tiny_sequence,
                                checkpoint_dir=tmp_path)
        result = resumed.run(tiny_sequence, resume=True)

        np.testing.assert_array_equal(result.accuracy_matrix,
                                      expected.accuracy_matrix)
        kinds = [e["kind"] for e in resumed.log.events]
        assert "corrupt-checkpoint" in kinds and "resume" in kinds

    @pytest.mark.parametrize("name", ["edsr", "der"])
    def test_resume_of_complete_run_reruns_nothing(self, name, fast_config,
                                                   tiny_sequence, tmp_path):
        first = fresh_trainer(name, fast_config, tiny_sequence,
                              checkpoint_dir=tmp_path)
        expected = first.run(tiny_sequence)
        resumed = fresh_trainer(name, fast_config, tiny_sequence,
                                checkpoint_dir=tmp_path)
        result = resumed.run(tiny_sequence, resume=True)
        np.testing.assert_array_equal(result.accuracy_matrix,
                                      expected.accuracy_matrix)
        # No new checkpoints were written beyond the originals.
        kinds = [e["kind"] for e in resumed.log.events]
        assert "checkpoint" not in kinds


class TestTapedKillAndResume:
    """PR 4 acceptance: kill-and-resume with ``use_tape`` enabled stays
    bit-for-bit identical to the pure-eager run — tapes are rebuilt after
    the restart, never serialized, and must not perturb any state."""

    def test_taped_resume_is_bit_for_bit_vs_eager(self, fast_config,
                                                  tiny_sequence, tmp_path):
        assert fast_config.use_tape  # tape defaults on
        eager = fresh_trainer("finetune",
                              fast_config.with_overrides(use_tape=False),
                              tiny_sequence)
        expected = eager.run(tiny_sequence)

        crashed = fresh_trainer("finetune", fast_config, tiny_sequence,
                                checkpoint_dir=tmp_path)
        crashed.run(tiny_sequence)
        last = len(tiny_sequence) - 1
        (tmp_path / f"ckpt-{last:05d}.json").unlink()
        (tmp_path / f"ckpt-{last:05d}.npz").unlink()

        resumed = fresh_trainer("finetune", fast_config, tiny_sequence,
                                checkpoint_dir=tmp_path)
        result = resumed.run(tiny_sequence, resume=True)

        np.testing.assert_array_equal(result.accuracy_matrix,
                                      expected.accuracy_matrix)
        assert_same_weights(resumed.method, eager.method)
        assert resumed._taped_step is not None
        assert resumed._taped_step.stats["replays"] > 0

    def test_taped_checkpoints_identical_to_eager_checkpoints(
            self, fast_config, tiny_sequence, tmp_path):
        eager_dir = tmp_path / "eager"
        taped_dir = tmp_path / "taped"
        fresh_trainer("finetune", fast_config.with_overrides(use_tape=False),
                      tiny_sequence, checkpoint_dir=eager_dir).run(tiny_sequence)
        fresh_trainer("finetune", fast_config, tiny_sequence,
                      checkpoint_dir=taped_dir).run(tiny_sequence)

        for task_index in range(len(tiny_sequence)):
            name = f"ckpt-{task_index:05d}.npz"
            with np.load(eager_dir / name) as eager_ck, \
                    np.load(taped_dir / name) as taped_ck:
                assert set(eager_ck.files) == set(taped_ck.files)
                for key in eager_ck.files:
                    np.testing.assert_array_equal(
                        eager_ck[key], taped_ck[key],
                        err_msg=f"{name}:{key}")


class TestShardedKillAndResume:
    """PR 5 acceptance: the sharded regime is execution-topology
    independent end to end — a run checkpointed under one worker count,
    killed, and resumed under a *different* worker count is bit-for-bit
    identical to the uninterrupted serial-sharded run."""

    @pytest.mark.slow
    def test_resume_under_different_worker_count(self, fast_config,
                                                 tiny_sequence, tmp_path):
        config = fast_config.with_overrides(workers=1)
        baseline = fresh_trainer("finetune", config, tiny_sequence)
        expected = baseline.run(tiny_sequence)

        # Crash a 2-worker run: the newest checkpoint is lost.
        crashed = fresh_trainer("finetune",
                                config.with_overrides(workers=2),
                                tiny_sequence, checkpoint_dir=tmp_path)
        crashed.run(tiny_sequence)
        last = len(tiny_sequence) - 1
        (tmp_path / f"ckpt-{last:05d}.json").unlink()
        (tmp_path / f"ckpt-{last:05d}.npz").unlink()

        # Resume serially: the checkpoint's informational meta says
        # workers=2, but restore never reads it.
        resumed = fresh_trainer("finetune", config, tiny_sequence,
                                checkpoint_dir=tmp_path)
        result = resumed.run(tiny_sequence, resume=True)

        np.testing.assert_array_equal(result.accuracy_matrix,
                                      expected.accuracy_matrix)
        assert_same_weights(resumed.method, baseline.method)
        kinds = [e["kind"] for e in resumed.log.events]
        assert "resume" in kinds

    @pytest.mark.slow
    def test_loaded_meta_reports_crashed_topology(self, fast_config,
                                                  tiny_sequence, tmp_path):
        from repro.runtime import CheckpointManager

        config = fast_config.with_overrides(workers=2)
        trainer = fresh_trainer("finetune", config, tiny_sequence,
                                checkpoint_dir=tmp_path)
        trainer.run(tiny_sequence)
        loaded = CheckpointManager(tmp_path).load_latest()
        assert loaded is not None
        assert loaded.meta == {"probe": "knn", "workers": 2, "n_shards": 6}


class TestLongSequenceKillAndResume:
    """Scenario-path acceptance: a 20+ segment ``long_sequence`` run
    killed mid-stream and resumed in a fresh process reproduces the
    uninterrupted run bit-for-bit — accuracy matrix, transfer matrix
    (online *and* final views), final weights, and trainer RNG state."""

    @pytest.mark.slow
    def test_21_segment_resume_is_bit_for_bit(self, fast_config,
                                              tiny_sequence, tmp_path):
        from repro.scenarios import run_scenario_method

        config = fast_config.with_overrides(epochs=1, long_cycles=7,
                                            scenario="long_sequence")
        n_segments = 7 * len(tiny_sequence)

        def scenario_trainer(checkpoint_dir=None, resume=False):
            return run_scenario_method("edsr", tiny_sequence, config,
                                       seed=SEED,
                                       checkpoint_dir=checkpoint_dir,
                                       resume=resume)

        expected, expected_tm = scenario_trainer()
        assert expected_tm.n_rows == n_segments

        # Checkpointed run, then a crash that loses the last two
        # checkpoints: resume restarts at segment 19 of 21.
        crash_dir = tmp_path / "crashed"
        scenario_trainer(checkpoint_dir=crash_dir)
        for lost in (n_segments - 1, n_segments - 2):
            (crash_dir / f"ckpt-{lost:05d}.json").unlink()
            (crash_dir / f"ckpt-{lost:05d}.npz").unlink()

        result, transfer = scenario_trainer(checkpoint_dir=crash_dir,
                                            resume=True)

        np.testing.assert_array_equal(result.accuracy_matrix,
                                      expected.accuracy_matrix)
        np.testing.assert_array_equal(transfer.online, expected_tm.online)
        np.testing.assert_array_equal(transfer.final, expected_tm.final)
        assert transfer.complete

    @pytest.mark.slow
    def test_resume_restores_weights_and_rng_state(self, fast_config,
                                                   tiny_sequence, tmp_path):
        from repro.continual import ContinualTrainer
        from repro.scenarios import build_stream

        config = fast_config.with_overrides(epochs=1, long_cycles=7,
                                            scenario="long_sequence")
        stream = build_stream("long_sequence", tiny_sequence, config)
        n_segments = len(stream)

        def stream_trainer(**kwargs) -> ContinualTrainer:
            return fresh_trainer("edsr", config, tiny_sequence, **kwargs)

        baseline = stream_trainer()
        baseline.run(stream)

        crashed = stream_trainer(checkpoint_dir=tmp_path)
        crashed.run(stream)
        (tmp_path / f"ckpt-{n_segments - 1:05d}.json").unlink()
        (tmp_path / f"ckpt-{n_segments - 1:05d}.npz").unlink()

        resumed = stream_trainer(checkpoint_dir=tmp_path)
        resumed.run(stream, resume=True)

        assert_same_weights(resumed.method, baseline.method)
        assert resumed.rng.bit_generator.state == \
            baseline.rng.bit_generator.state
        kinds = [e["kind"] for e in resumed.log.events]
        assert "resume" in kinds


class TestResumeValidation:
    def test_resume_without_checkpoint_dir_raises(self, fast_config,
                                                  tiny_sequence):
        trainer = fresh_trainer("finetune", fast_config, tiny_sequence)
        with pytest.raises(ValueError, match="checkpoint_dir"):
            trainer.run(tiny_sequence, resume=True)

    def test_resume_with_empty_dir_runs_from_scratch(self, fast_config,
                                                     tiny_sequence, tmp_path):
        baseline = fresh_trainer("finetune", fast_config, tiny_sequence)
        expected = baseline.run(tiny_sequence)
        trainer = fresh_trainer("finetune", fast_config, tiny_sequence,
                                checkpoint_dir=tmp_path)
        result = trainer.run(tiny_sequence, resume=True)
        np.testing.assert_array_equal(result.accuracy_matrix,
                                      expected.accuracy_matrix)

    def test_wrong_method_checkpoint_rejected(self, fast_config, tiny_sequence,
                                              tmp_path):
        from repro.runtime import CheckpointError
        first = fresh_trainer("finetune", fast_config, tiny_sequence,
                              checkpoint_dir=tmp_path)
        first.run(tiny_sequence)
        other = fresh_trainer("der", fast_config, tiny_sequence,
                              checkpoint_dir=tmp_path)
        with pytest.raises(CheckpointError, match="finetune"):
            other.run(tiny_sequence, resume=True)


class PoisonedFinetune(Finetune):
    """Finetune whose loss is NaN on chosen batch_loss call indices."""

    def __init__(self, objective, config, rng, poison=()):
        super().__init__(objective, config, rng)
        self.poison = set(poison)
        self.calls = 0

    def batch_loss(self, view1, view2, x):
        loss = super().batch_loss(view1, view2, x)
        call = self.calls
        self.calls += 1
        if call in self.poison:
            return loss * float("nan")
        return loss


def poisoned_trainer(config, sequence, poison, policy, **kwargs):
    rng = np.random.default_rng(SEED)
    objective = build_objective(config, sequence[0].train.x.shape[1:], rng)
    method = PoisonedFinetune(objective, config, rng, poison=poison)
    return ContinualTrainer(method, config, rng, verbose=False,
                            guardrails=policy, **kwargs)


class TestGuardrailRecovery:
    def test_transient_nan_is_skipped_without_aborting(self, fast_config,
                                                       tiny_sequence):
        policy = GuardrailPolicy(max_skips_per_task=3)
        trainer = poisoned_trainer(fast_config, tiny_sequence,
                                   poison={1, 3}, policy=policy)
        result = trainer.run(tiny_sequence)
        assert result.complete
        kinds = [e["kind"] for e in trainer.log.events]
        assert kinds.count("anomaly") == 2
        assert "restore" not in kinds and "abort" not in kinds

    def test_nan_caught_without_anomaly_mode(self, fast_config, tiny_sequence):
        policy = GuardrailPolicy(anomaly_mode=False, max_skips_per_task=3)
        trainer = poisoned_trainer(fast_config, tiny_sequence,
                                   poison={1}, policy=policy)
        result = trainer.run(tiny_sequence)
        assert result.complete
        kinds = [e["kind"] for e in trainer.log.events]
        assert "nonfinite-loss" in kinds

    def test_persistent_nan_restores_then_aborts(self, fast_config,
                                                 tiny_sequence, tmp_path):
        policy = GuardrailPolicy(max_skips_per_task=1, max_restores_per_task=1,
                                 lr_backoff=0.5)
        trainer = poisoned_trainer(fast_config, tiny_sequence,
                                   poison=set(range(10_000)), policy=policy,
                                   checkpoint_dir=tmp_path)
        with pytest.raises(TrainingDiverged) as excinfo:
            trainer.run(tiny_sequence)

        kinds = [e["kind"] for e in trainer.log.events]
        assert "restore" in kinds and "abort" in kinds
        restore = next(e for e in trainer.log.events if e["kind"] == "restore")
        assert restore["lr_scale"] == pytest.approx(0.5)

        report_path = tmp_path / "failure-report.json"
        assert excinfo.value.report_path == report_path
        report = json.loads(report_path.read_text())
        assert report["method"] == "finetune"
        assert report["task_index"] == 0
        assert report["restores"] == 1
        assert report["policy"]["lr_backoff"] == pytest.approx(0.5)
        assert report["recent_events"]
