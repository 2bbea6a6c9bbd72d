"""Tests for the trainer, config, and multitask runner."""

import numpy as np
import pytest

from repro.continual import (
    ContinualConfig,
    ContinualTrainer,
    build_objective,
    make_method,
    run_method,
    run_multitask,
)
from repro.continual.trainer import _build_augment, _build_optimizer, _build_schedule
from repro.data import load_tabular_benchmark
from repro.optim import Adam, ConstantLR, CosineLR, SGD
from repro.ssl import BarlowTwins, SimSiam


class TestConfig:
    def test_with_overrides_is_functional(self):
        base = ContinualConfig()
        derived = base.with_overrides(epochs=99)
        assert derived.epochs == 99
        assert base.epochs != 99

    def test_frozen(self):
        with pytest.raises(Exception):
            ContinualConfig().epochs = 3


class TestBuildObjective:
    def test_simsiam_for_images(self, rng):
        config = ContinualConfig(representation_dim=16)
        objective = build_objective(config, (3, 8, 8), rng)
        assert isinstance(objective, SimSiam)
        assert objective.representation_dim == 16

    def test_barlow_selectable(self, rng):
        config = ContinualConfig(objective="barlow", representation_dim=16)
        assert isinstance(build_objective(config, (3, 8, 8), rng), BarlowTwins)

    def test_mlp_for_tabular(self, rng):
        config = ContinualConfig(representation_dim=16)
        objective = build_objective(config, (12,), rng)
        out = objective.representation(np.zeros((4, 12), dtype=np.float32))
        assert out.shape == (4, 16)

    def test_rejects_unknown_shapes(self, rng):
        config = ContinualConfig()
        with pytest.raises(ValueError):
            build_objective(config, (3, 8, 7), rng)  # non-square
        with pytest.raises(ValueError):
            build_objective(config, (2, 3, 4, 5), rng)
        with pytest.raises(ValueError):
            build_objective(config.with_overrides(objective="moco"), (3, 8, 8), rng)


class TestBuilders:
    def test_optimizer_selection(self, rng):
        from repro.nn import Linear
        params = Linear(2, 2, rng=rng).parameters()
        assert isinstance(_build_optimizer(ContinualConfig(optimizer="sgd"), params), SGD)
        assert isinstance(_build_optimizer(ContinualConfig(optimizer="adam"), params), Adam)
        with pytest.raises(ValueError):
            _build_optimizer(ContinualConfig(optimizer="lbfgs"), params)

    def test_schedule_selection(self, rng):
        from repro.nn import Linear
        opt = SGD(Linear(2, 2, rng=rng).parameters(), lr=0.1)
        assert isinstance(_build_schedule(ContinualConfig(schedule="cosine"), opt), CosineLR)
        assert isinstance(_build_schedule(ContinualConfig(schedule="constant"), opt), ConstantLR)
        with pytest.raises(ValueError):
            _build_schedule(ContinualConfig(schedule="warmup"), opt)

    def test_augment_dispatch(self):
        config = ContinualConfig()
        images = np.zeros((4, 3, 8, 8), dtype=np.float32)
        rows = np.zeros((4, 7), dtype=np.float32)
        assert _build_augment(config, images) is not None
        assert _build_augment(config, rows) is not None
        with pytest.raises(ValueError):
            _build_augment(config, np.zeros((4, 3, 8)))


class TestTrainerRun:
    def test_produces_complete_result(self, tiny_sequence, fast_config, rng):
        result = run_method("finetune", tiny_sequence, fast_config, seed=0)
        assert result.complete
        assert result.accuracy_matrix.shape == (3, 3)
        assert np.isnan(result.accuracy_matrix[0, 1])
        assert result.elapsed_seconds > 0

    def test_accuracies_in_unit_interval(self, tiny_sequence, fast_config):
        result = run_method("finetune", tiny_sequence, fast_config, seed=0)
        recorded = result.accuracy_matrix[~np.isnan(result.accuracy_matrix)]
        assert ((recorded >= 0) & (recorded <= 1)).all()

    def test_seed_reproducibility(self, tiny_sequence, fast_config):
        a = run_method("finetune", tiny_sequence, fast_config, seed=3)
        b = run_method("finetune", tiny_sequence, fast_config, seed=3)
        np.testing.assert_allclose(a.accuracy_matrix, b.accuracy_matrix, equal_nan=True)

    def test_different_seeds_differ(self, tiny_sequence, fast_config):
        a = run_method("finetune", tiny_sequence, fast_config, seed=0)
        b = run_method("finetune", tiny_sequence, fast_config, seed=1)
        assert not np.allclose(a.accuracy_matrix, b.accuracy_matrix, equal_nan=True)

    def test_edsr_full_run(self, tiny_sequence, fast_config):
        result = run_method("edsr", tiny_sequence, fast_config, seed=0)
        assert result.complete

    def test_tabular_sequence_runs(self, fast_config):
        sequence = load_tabular_benchmark("ci")
        config = fast_config.with_overrides(optimizer="adam", lr=1e-3, epochs=1)
        result = run_method("edsr", sequence, config, seed=0)
        assert result.complete

    def test_run_method_rejects_a_scenario_config(self, tiny_sequence,
                                                  fast_config):
        config = fast_config.with_overrides(scenario="blurry")
        with pytest.raises(ValueError, match="run_scenario_method"):
            run_method("finetune", tiny_sequence, config)


class TestMultitask:
    def test_result_has_all_tasks(self, tiny_sequence, fast_config):
        result = run_multitask(tiny_sequence, fast_config, seed=0)
        assert len(result.per_task) == len(tiny_sequence)
        assert 0.0 <= result.acc() <= 1.0
        assert result.elapsed_seconds > 0
