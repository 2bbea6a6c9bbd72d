"""DER — Dark Experience Replay (Buzzega et al. 2020), unsupervised variant.

DER stores randomly chosen samples together with the *backbone output* the
model produced for them, and replays an MSE distillation term pulling the
current backbone output toward the stored one:

``L = L_css(x1^n, x2^n) + alpha * MSE(backbone(x^m), stored(x^m))``.

As the paper notes (Sec. IV-A4), DER distils "based on the output from the
CNN backbone model instead of representations", which neglects the
projector's representation space — one reason it trails the UCL methods.
"""

from __future__ import annotations

from repro.continual.method import ReplayMemory
from repro.data.splits import Task
from repro.memory.buffer import MemoryRecord
from repro.tensor import ops
from repro.tensor.tensor import Tensor, no_grad


class DER(ReplayMemory):
    """Dark Experience Replay adapted to the unsupervised setting."""

    name = "der"

    def batch_loss(self, view1, view2, raw) -> Tensor:
        loss = self.objective.css_loss(view1, view2)
        if self.buffer is None or self.buffer.is_empty:
            return loss
        idx = self.sampling.sample(len(self.buffer), self.config.replay_batch_size,
                                   self.rng)
        samples = self.buffer.all_samples()[idx]
        targets = self.buffer.all_targets()[idx]
        current = self.objective.encoder.features(samples)
        replay = ops.mse(current, Tensor(targets))
        return loss + self.config.der_alpha * replay

    def end_task(self, task: Task, task_index: int) -> None:
        if self.buffer.per_task_quota == 0:
            return
        chosen = self.random_store_indices(task)
        samples = task.train.x[chosen]
        was_training = self.objective.training
        self.objective.eval()
        try:
            with no_grad():
                targets = self.objective.encoder.features(samples).numpy().copy()
        finally:
            self.objective.train(was_training)
        self.buffer.add(MemoryRecord(task_id=task_index, samples=samples.copy(),
                                     targets=targets, labels=task.train.y[chosen].copy()))
