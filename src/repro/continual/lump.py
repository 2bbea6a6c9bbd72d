"""LUMP (Madaan et al. 2022) — mixup replay of random memory.

LUMP keeps a buffer of randomly stored old samples and, while learning the
new increment, replaces each training input with a mixup of new and stored
data (Sec. II-B2):

``x_bar = omega * x^n + (1 - omega) * x^m,  omega ~ Beta(alpha, alpha)``

and optimizes ``L_css(x_bar_1, x_bar_2)`` on the mixed views.  Both views of
a sample share the same ``omega`` and memory partner, as in the original.
"""

from __future__ import annotations

from repro.continual.method import ReplayMemory
from repro.data.splits import Task
from repro.memory.buffer import MemoryRecord
from repro.tensor.tensor import Tensor


class LUMP(ReplayMemory):
    """Mixup replay of a random memory (Madaan et al. 2022)."""

    name = "lump"

    def batch_loss(self, view1, view2, raw) -> Tensor:
        if self.buffer is None or self.buffer.is_empty:
            return self.objective.css_loss(view1, view2)
        n = len(view1)
        memory = self.buffer.all_samples()
        partners = self.rng.choice(len(memory), size=n, replace=len(memory) < n)
        alpha = self.config.lump_alpha
        omega = self.rng.beta(alpha, alpha, size=n).astype(view1.dtype)
        shape = (n,) + (1,) * (view1.ndim - 1)
        omega = omega.reshape(shape)
        # Memory partners get the same augmentation pipeline as new data.
        mem1 = self.augment.pipeline(memory[partners], self.rng)
        mem2 = self.augment.pipeline(memory[partners], self.rng)
        mixed1 = omega * view1 + (1.0 - omega) * mem1
        mixed2 = omega * view2 + (1.0 - omega) * mem2
        return self.objective.css_loss(mixed1, mixed2)

    def end_task(self, task: Task, task_index: int) -> None:
        if self.buffer.per_task_quota == 0:
            return
        chosen = self.random_store_indices(task)
        self.buffer.add(MemoryRecord(task_id=task_index,
                                     samples=task.train.x[chosen].copy(),
                                     labels=task.train.y[chosen].copy()))
