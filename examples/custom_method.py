"""Scenario: build your own continual method on the library's primitives.

Implements "EDSR-lite" in ~40 lines — random memory selection plus plain
(noise-free) distillation replay — on the two building blocks the built-in
methods share: :class:`ReplayMemory` (the episodic buffer, its uniform
replay draw and its checkpoint key) and :class:`FrozenTeacher` (the frozen
previous-increment model), with :func:`teacher_target` for the old model's
distillation targets.  It compares EDSR-lite against Finetune and the full
EDSR.  This is the template for experimenting with new selection / replay
ideas.  Takes ~30 seconds on CPU.

Usage::

    python examples/custom_method.py
"""

import numpy as np

from repro import ContinualConfig, load_image_benchmark, run_method
from repro.continual import ContinualTrainer, build_objective
from repro.continual.method import FrozenTeacher, ReplayMemory
from repro.memory import MemoryRecord
from repro.ssl import DistillationHead
from repro.ssl.distill import teacher_target
from repro.utils import format_table


class EDSRLite(FrozenTeacher, ReplayMemory):
    """Random memory + plain distillation replay (no entropy, no noise)."""

    name = "edsr-lite"

    def __init__(self, objective, config, rng):
        super().__init__(objective, config, rng)
        self.head = None

    def begin_task(self, task, task_index, n_tasks):
        super().begin_task(task, task_index, n_tasks)  # buffer + old model
        if self.old_objective is not None:
            self.head = DistillationHead(self.objective, rng=self.rng)

    def trainable_parameters(self):
        params = self.objective.parameters()
        if self.head is not None:
            params = params + self.head.parameters()
        return params

    def batch_loss(self, view1, view2, raw):
        loss = self.objective.css_loss(view1, view2)
        if self.old_objective is None or self.buffer.is_empty:
            return loss
        idx = self.sampling.sample(len(self.buffer), self.config.replay_batch_size,
                                   self.rng)
        memory_view = self.augment.pipeline(self.buffer.all_samples()[idx], self.rng)
        target = teacher_target(self.old_objective, memory_view)
        return loss + 0.5 * self.head.loss(memory_view, target)

    def end_task(self, task, task_index):
        chosen = self.random_store_indices(task)
        self.buffer.add(MemoryRecord(task_id=task_index,
                                     samples=task.train.x[chosen].copy()))

    # The mixins checkpoint the buffer and the old model; the head is ours.
    def state_dict(self):
        state = super().state_dict()
        state["head"] = None if self.head is None else self.head.state_dict()
        return state

    def load_state_dict(self, state):
        super().load_state_dict(state)
        self.head = None
        if state["head"] is not None:
            self.head = DistillationHead(self.objective, rng=self.rng)
            self.head.load_state_dict(state["head"])


def main() -> None:
    sequence = load_image_benchmark("cifar10-like", scale="ci")
    config = ContinualConfig(epochs=8)

    rows = []
    for name in ("finetune", "edsr"):
        result = run_method(name, sequence, config, seed=0)
        rows.append([name, f"{100 * result.acc():.2f}", f"{100 * result.fgt():.2f}"])

    rng = np.random.default_rng(0)
    objective = build_objective(config, sequence[0].train.x.shape[1:], rng)
    custom = EDSRLite(objective, config, rng)
    result = ContinualTrainer(custom, config, rng).run(sequence)
    rows.append([custom.name, f"{100 * result.acc():.2f}", f"{100 * result.fgt():.2f}"])

    print(format_table(["method", "Acc %", "Fgt %"], rows,
                       title="custom method vs built-ins (single seed)"))


if __name__ == "__main__":
    main()
