"""EDSR — Effective Data Selection and Replay (the paper's method, Sec. III).

EDSR extends CaSSLe's distillation with an episodic memory chosen by
high-entropy selection and replayed through noise-enhanced distillation.
The final objective (Sec. III-C) is

``L = sum L_css(x1^n, x2^n)
    + sum 1/2 (L_dis(x1^n) + L_dis(x2^n))
    + sum 1/2 L_rpl(x1^m | r(x^m))``

Training stage: every batch combines the new-data terms with a replay term
on a memory batch.  Selecting stage (``end_task``): representations of the
just-learned increment are extracted *without augmentation* by the
optimized model; the configured strategy picks the quota (high-entropy by
default, Eq. 15); the kNN noise scales ``r(x)`` are computed against the
full increment and stored alongside the samples (Sec. III-B).

The ``selection`` and ``replay_loss`` config fields swap in every Table IV /
Table V variant without touching this class.
"""

from __future__ import annotations

import numpy as np

from repro.continual.cassle import CaSSLe
from repro.continual.config import ContinualConfig
from repro.continual.method import ReplayMemory
from repro.data.splits import Task
from repro.eval.protocol import extract_representations
from repro.memory.buffer import MemoryRecord
from repro.replay.losses import make_replay
from repro.replay.noise import noise_scales
from repro.replay.sampling import batch_similarities, make_sampling
from repro.selection.base import SelectionContext, make_strategy
from repro.ssl.base import CSSLObjective
from repro.tensor.tensor import Tensor


class EDSR(ReplayMemory, CaSSLe):
    """The paper's method: entropy-based selection + noise-enhanced replay."""

    name = "edsr"

    def __init__(self, objective: CSSLObjective, config: ContinualConfig,
                 rng: np.random.Generator):
        super().__init__(objective, config, rng)
        # Stateless policy objects, rebuilt from config at construction;
        # nothing in them drifts during training, so the checkpoint skips
        # them.  The buffer itself is covered by state_dict.
        self.strategy = make_strategy(config.selection)  # repro-lint: disable=SER002
        self.replay = make_replay(config.replay_loss)  # repro-lint: disable=SER002
        self.sampling = make_sampling(config.replay_sampling)  # repro-lint: disable=SER002
        self._memory_old_reps: np.ndarray | None = None

    def begin_task(self, task: Task, task_index: int, n_tasks: int) -> None:
        super().begin_task(task, task_index, n_tasks)
        # Cache the frozen old model's view of the memory once per increment
        # (used by similarity-based replay sampling, the Sec. IV-F extension).
        self._memory_old_reps = None
        if (self.sampling.needs_batch_context and self.old_objective is not None
                and not self.buffer.is_empty):
            self._memory_old_reps = extract_representations(
                self.old_objective, self.buffer.all_samples())

    def _replay_loss(self, raw: np.ndarray | None = None) -> Tensor | None:
        if self.buffer is None or self.buffer.is_empty or self.config.replay_batch_size == 0:
            return None
        if self.replay.needs_old_model and self.old_objective is None:
            return None
        similarities = None
        if self.sampling.needs_batch_context and raw is not None \
                and self._memory_old_reps is not None:
            batch_reps = extract_representations(self.objective, raw)
            similarities = batch_similarities(self._memory_old_reps, batch_reps)
        idx = self.sampling.sample(len(self.buffer), self.config.replay_batch_size,
                                   self.rng, similarities=similarities)
        batch = self.buffer.all_samples()[idx]
        noise = self.buffer.all_noise_scales()[idx] if self.replay.needs_noise_scales else None
        return self.replay.loss(
            batch,
            objective=self.objective,
            old_objective=self.old_objective,
            head=self.head,
            augment=self.augment.pipeline,
            noise=noise,
            rng=self.rng,
        )

    def batch_loss(self, view1, view2, raw) -> Tensor:
        loss = super().batch_loss(view1, view2, raw)  # L_css + distillation on new data
        replay = self._replay_loss(raw)
        if replay is not None:
            loss = loss + self.config.replay_weight * replay
        return loss

    def _view_variances(self, x: np.ndarray, n_views: int = 4) -> np.ndarray:
        """Per-sample variance of augmented-view representations (Min-Var)."""
        reps = np.stack([
            extract_representations(self.objective, self.augment.pipeline(x, self.rng))
            for _ in range(n_views)
        ])  # (V, N, d)
        return reps.var(axis=0).mean(axis=1)

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["memory_old_reps"] = (None if self._memory_old_reps is None
                                    else self._memory_old_reps.copy())
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        reps = state["memory_old_reps"]
        self._memory_old_reps = None if reps is None else np.asarray(reps)

    def end_task(self, task: Task, task_index: int) -> None:
        quota = self.buffer.per_task_quota
        if quota == 0:
            return
        representations = extract_representations(self.objective, task.train.x)
        view_variances = None
        if self.strategy.requires_view_variance:
            view_variances = self._view_variances(task.train.x)
        context = SelectionContext(
            representations=representations,
            budget=quota,
            rng=self.rng,
            view_variances=view_variances,
            n_groups=self.config.minvar_groups,
        )
        chosen = self.strategy.select(context)
        scales = noise_scales(representations[chosen], representations,
                              self.config.noise_neighbors, mode=self.config.noise_mode)
        self.buffer.add(MemoryRecord(
            task_id=task_index,
            samples=task.train.x[chosen].copy(),
            noise_scales=scales,
            labels=task.train.y[chosen].copy(),
        ))
