"""Tests for the KNN probe, metrics, and evaluation protocol."""

import numpy as np
import pytest

from repro.eval import ContinualResult, KNNClassifier, forgetting_matrix
from repro.eval.protocol import evaluate_task, evaluate_tasks, extract_representations


class TestKNN:
    def test_perfectly_separated_clusters(self, rng):
        train = np.concatenate([rng.normal(size=(20, 4)), 50 + rng.normal(size=(20, 4))])
        labels = np.array([0] * 20 + [1] * 20)
        probe = KNNClassifier(k=5).fit(train, labels)
        test = np.concatenate([rng.normal(size=(5, 4)), 50 + rng.normal(size=(5, 4))])
        np.testing.assert_array_equal(probe.predict(test), [0] * 5 + [1] * 5)
        assert probe.accuracy(test, [0] * 5 + [1] * 5) == 1.0

    def test_k_clipped_to_index_size(self, rng):
        probe = KNNClassifier(k=50).fit(rng.normal(size=(3, 2)), [0, 1, 0])
        assert probe.predict(rng.normal(size=(2, 2))).shape == (2,)

    def test_cosine_invariance_to_scale(self, rng):
        train = rng.normal(size=(30, 4))
        labels = rng.integers(0, 3, size=30)
        test = rng.normal(size=(10, 4))
        a = KNNClassifier(k=5).fit(train, labels).predict(test)
        b = KNNClassifier(k=5).fit(train * 100.0, labels).predict(test * 0.01)
        np.testing.assert_array_equal(a, b)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            KNNClassifier().predict(np.zeros((1, 2)))

    def test_fit_validates_inputs(self):
        with pytest.raises(ValueError):
            KNNClassifier().fit(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            KNNClassifier().fit(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            KNNClassifier(k=0)

    def test_chunked_predict_bit_identical_to_reference(self, rng):
        """Regression for the O(queries x index) memory blowup fix: chunked
        scatter-add voting must reproduce the original full-matrix loop
        bit for bit."""
        train = rng.normal(size=(123, 8)).astype(np.float32)
        labels = rng.integers(0, 5, size=123)
        queries = rng.normal(size=(257, 8)).astype(np.float32)

        probe = KNNClassifier(k=9, chunk_size=32).fit(train, labels)
        predictions = probe.predict(queries)

        # Pre-fix reference: one dense similarity matrix, per-query loop.
        index = probe._index
        classes = probe._classes
        k = min(probe.k, len(train))
        normed = queries / np.maximum(
            np.linalg.norm(queries, axis=1, keepdims=True), 1e-12)
        sims = normed @ index.T
        expected = np.empty(len(queries), dtype=classes.dtype)
        for i in range(len(queries)):
            top = np.argpartition(sims[i], -k)[-k:]
            weights = np.exp(sims[i][top] / probe.temperature)
            scores = np.zeros(len(classes))
            np.add.at(scores, probe._label_index[top], weights)
            expected[i] = classes[np.argmax(scores)]
        np.testing.assert_array_equal(predictions, expected)

    def test_chunk_size_does_not_change_predictions(self, rng):
        train = rng.normal(size=(40, 4))
        labels = rng.integers(0, 3, size=40)
        queries = rng.normal(size=(33, 4))
        baseline = KNNClassifier(k=5, chunk_size=1).fit(train, labels).predict(queries)
        for chunk_size in (2, 7, 33, 1000):
            probe = KNNClassifier(k=5, chunk_size=chunk_size).fit(train, labels)
            np.testing.assert_array_equal(probe.predict(queries), baseline)
        with pytest.raises(ValueError):
            KNNClassifier(chunk_size=0)

    def test_weighted_voting_prefers_closer_neighbours(self):
        # 2 far class-1 neighbours, 1 identical class-0 neighbour; with k=3
        # the exp(cos/tau) weighting must favour the near one.
        train = np.array([[1.0, 0.0], [0.0, 1.0], [0.05, 1.0]])
        labels = np.array([0, 1, 1])
        probe = KNNClassifier(k=3, temperature=0.05).fit(train, labels)
        assert probe.predict(np.array([[1.0, 0.0]]))[0] == 0


class TestForgettingMatrix:
    def test_fig3_semantics(self):
        a = np.array([
            [0.9, np.nan, np.nan],
            [0.8, 0.95, np.nan],
            [0.85, 0.90, 0.99],
        ])
        f = forgetting_matrix(a)
        assert f[0, 0] == pytest.approx(0.0)
        assert f[1, 0] == pytest.approx(0.1)     # 0.9 -> 0.8
        assert f[2, 0] == pytest.approx(0.05)    # best 0.9, now 0.85
        assert f[2, 1] == pytest.approx(0.05)    # best 0.95, now 0.90
        assert f[2, 2] == pytest.approx(0.0)     # diagonal always 0
        assert np.isnan(f[0, 1])

    def test_diagonal_always_zero(self, rng):
        n = 4
        a = np.full((n, n), np.nan)
        for i in range(n):
            a[i, :i + 1] = rng.uniform(size=i + 1)
        f = forgetting_matrix(a)
        np.testing.assert_allclose(np.diagonal(f), 0.0)

    def test_backward_transfer_clamps_to_zero(self):
        """F_{i,j} = max_{i'<=i}(A_{i',j}) - A_{i,j} includes i'=i, so even
        when accuracy improves on old tasks forgetting is never negative."""
        a = np.array([[0.5, np.nan], [0.7, 0.8]])
        assert forgetting_matrix(a)[1, 0] == pytest.approx(0.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            forgetting_matrix(np.zeros((2, 3)))


class TestContinualResult:
    def _filled(self):
        r = ContinualResult(3, name="m")
        r.record_row([0.9])
        r.record_row([0.8, 0.95])
        r.record_row([0.85, 0.90, 0.99])
        return r

    def test_acc_eq17(self):
        r = self._filled()
        assert r.acc_at(0) == pytest.approx(0.9)
        assert r.acc_at(1) == pytest.approx((0.8 + 0.95) / 2)
        assert r.acc() == pytest.approx((0.85 + 0.90 + 0.99) / 3)

    def test_fgt_eq18(self):
        r = self._filled()
        assert r.fgt_at(0) == 0.0
        assert r.fgt_at(1) == pytest.approx(0.1)
        assert r.fgt() == pytest.approx((0.05 + 0.05) / 2)

    def test_new_task_accuracies_fig5(self):
        r = self._filled()
        np.testing.assert_allclose(r.new_task_accuracies(), [0.9, 0.95, 0.99])

    def test_acc_series_fig7(self):
        r = self._filled()
        series = r.acc_series()
        assert len(series) == 3
        assert series[0] == pytest.approx(0.9)

    def test_row_length_validation(self):
        r = ContinualResult(3)
        with pytest.raises(ValueError):
            r.record_row([0.9, 0.8])

    def test_too_many_rows_raises(self):
        r = self._filled()
        assert r.complete
        with pytest.raises(RuntimeError):
            r.record_row([1.0, 1.0, 1.0, 1.0])

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            ContinualResult(0)


class TestProtocol:
    def test_extract_representations_batched_consistent(self, tiny_sequence, fast_config, rng):
        from repro.continual import build_objective
        objective = build_objective(fast_config, tiny_sequence[0].train.x.shape[1:], rng)
        x = tiny_sequence[0].train.x
        full = extract_representations(objective, x, batch_size=1000)
        chunked = extract_representations(objective, x, batch_size=7)
        np.testing.assert_allclose(full, chunked, rtol=1e-4, atol=1e-5)

    def test_extract_preserves_training_mode(self, tiny_sequence, fast_config, rng):
        from repro.continual import build_objective
        objective = build_objective(fast_config, tiny_sequence[0].train.x.shape[1:], rng)
        objective.train()
        extract_representations(objective, tiny_sequence[0].train.x[:4])
        assert objective.training

    def test_extract_restores_training_mode_when_forward_raises(
            self, tiny_sequence, fast_config, rng, monkeypatch):
        """Regression: an anomaly raised inside the forward (EDSR's
        similarity replay sampling extracts representations mid-task) left
        the objective — and its BatchNorm layers — in eval mode for every
        later batch of the task."""
        from repro.continual import build_objective
        from repro.tensor.anomaly import AnomalyError
        objective = build_objective(fast_config, tiny_sequence[0].train.x.shape[1:], rng)
        objective.train()

        def poisoned(x):
            raise AnomalyError("non-finite output from op 'conv2d'")

        monkeypatch.setattr(objective, "representation", poisoned)
        with pytest.raises(AnomalyError):
            extract_representations(objective, tiny_sequence[0].train.x[:4])
        assert objective.training

    def test_evaluate_tasks_returns_one_accuracy_per_task(self, tiny_sequence, fast_config, rng):
        from repro.continual import build_objective
        objective = build_objective(fast_config, tiny_sequence[0].train.x.shape[1:], rng)
        accuracies = evaluate_tasks(objective, list(tiny_sequence), knn_k=5)
        assert len(accuracies) == len(tiny_sequence)
        assert all(0.0 <= a <= 1.0 for a in accuracies)

    def test_extract_representations_empty_input(self, tiny_sequence, fast_config, rng):
        """Regression: np.concatenate([]) used to crash on zero samples."""
        from repro.continual import build_objective
        objective = build_objective(fast_config, tiny_sequence[0].train.x.shape[1:], rng)
        reps = extract_representations(objective, tiny_sequence[0].train.x[:0])
        assert reps.shape == (0, objective.representation_dim)
        assert reps.dtype == np.float32

    def test_evaluate_task_rejects_unknown_probe(self, tiny_sequence, fast_config, rng):
        from repro.continual import build_objective
        objective = build_objective(fast_config, tiny_sequence[0].train.x.shape[1:], rng)
        with pytest.raises(ValueError, match="unknown probe"):
            evaluate_task(objective, tiny_sequence[0], probe="mlp")
