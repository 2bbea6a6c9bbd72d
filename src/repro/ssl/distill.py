"""The distillation head ``p_dis`` and loss ``L_dis`` (Eq. 9).

``L_dis(x) = L_css(p_dis(f(x)), f_old(x))``: the current representation is
projected back into the *old* representation space by a 2-layer MLP, then
aligned with the frozen old model's representation of the same input.  Both
CaSSLe-style new-data distillation and EDSR's memory replay (Eq. 16, where
the target is additionally noise-perturbed) are expressed through this head.
"""

from __future__ import annotations

import numpy as np

from repro.nn.mlp import MLP
from repro.nn.module import Module
from repro.ssl.base import CSSLObjective
from repro.tensor.tensor import Tensor, no_grad
from repro.utils.rng import fallback_rng


def teacher_target(teacher: CSSLObjective, x: np.ndarray) -> np.ndarray:
    """The frozen ``teacher``'s representation of ``x``, as a plain array.

    Computed under ``no_grad``: the target of every distillation term
    (CaSSLe, PFR, EDSR's replay) is a constant, never part of the graph.
    """
    with no_grad():
        return teacher.representation(x).numpy()


class DistillationHead(Module):
    """Projector ``p_dis`` bound to a CSSL objective's alignment loss.

    Parameters
    ----------
    objective:
        The live CSSL objective (supplies the current encoder and the
        loss-specific ``align``).
    rng:
        Generator for projector init.  A fresh head is created at the start
        of every increment, as in CaSSLe.
    """

    def __init__(self, objective: CSSLObjective, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or fallback_rng()
        d = objective.representation_dim
        # 2-layer MLP "with the same dimension as the representation" (Sec. IV-A5)
        self.projector = MLP([d, d, d], batch_norm=True, rng=rng)
        self._objective = objective  # plain attribute: not a registered child

    def __setattr__(self, name, value):
        # Avoid registering the objective as a submodule (its parameters are
        # optimized through the main model, not through this head).
        if name == "_objective":
            object.__setattr__(self, name, value)
            return
        super().__setattr__(name, value)

    def loss(self, x: np.ndarray, target: np.ndarray) -> Tensor:
        """``L_dis`` for a batch ``x`` against old-model targets ``target``.

        ``target`` is a plain array: the old model's representation of the
        same (augmented) inputs, optionally perturbed by EDSR's noise.
        """
        current = self._objective.representation(x)
        projected = self.projector(current)
        return self._objective.align(projected, target)
