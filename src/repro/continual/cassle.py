"""CaSSLe (Fini et al. 2022) — distillation-only forgetting prevention.

At each increment, the model from the previous increment is frozen and a
fresh distillation head ``p_dis`` is created.  Training minimizes

``L = L_css(x1, x2) + 1/2 (L_dis(x1) + L_dis(x2))``   (Eq. 9)

where ``L_dis`` aligns the current (projected) representation of each view
with the frozen model's representation of the same view.  No data is
stored: the old model alone carries the old knowledge, which the paper
identifies as CaSSLe's weakness over long sequences.
"""

from __future__ import annotations

import numpy as np

from repro.continual.config import ContinualConfig
from repro.continual.method import FrozenTeacher
from repro.data.splits import Task
from repro.nn.module import Parameter
from repro.ssl.base import CSSLObjective
from repro.ssl.distill import DistillationHead, teacher_target
from repro.tensor.tensor import Tensor


class CaSSLe(FrozenTeacher):
    """Distillation-only forgetting prevention (Fini et al. 2022)."""

    name = "cassle"

    def __init__(self, objective: CSSLObjective, config: ContinualConfig,
                 rng: np.random.Generator):
        super().__init__(objective, config, rng)
        self.head: DistillationHead | None = None

    def begin_task(self, task: Task, task_index: int, n_tasks: int) -> None:
        super().begin_task(task, task_index, n_tasks)
        if self.old_objective is not None:
            self.head = DistillationHead(self.objective, rng=self.rng)

    def trainable_parameters(self) -> list[Parameter]:
        params = self.objective.parameters()
        if self.head is not None:
            params = params + self.head.parameters()
        return params

    def _distill(self, view: np.ndarray) -> Tensor:
        return self.head.loss(view, teacher_target(self.old_objective, view))

    def batch_loss(self, view1, view2, raw) -> Tensor:
        loss = self.objective.css_loss(view1, view2)
        if self.old_objective is None:
            return loss
        distill = (self._distill(view1) + self._distill(view2)) * 0.5
        return loss + self.config.distill_weight * distill

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["head"] = None if self.head is None else self.head.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        if state["head"] is None:
            self.head = None
        else:
            self.head = DistillationHead(self.objective, rng=self.rng)
            self.head.load_state_dict(state["head"])
