"""The three replay losses compared in Table IV.

Given a replay batch of stored samples, each loss returns a scalar tensor:

- :class:`CSSReplay` — naive: run the CSSL objective directly on two
  augmented views of the memory (the paper shows this *over-fits* and hurts);
- :class:`DistillReplay` — ``L_dis`` (Eq. 9): align the current projected
  representation with the frozen old model's representation of the same
  augmented input;
- :class:`NoisyDistillReplay` — ``L_rpl`` (Eq. 16): distillation with the
  old target perturbed by ``r(x) * sigma``, ``sigma ~ N(0, I)``.
"""

from __future__ import annotations

import numpy as np

from repro.augment.base import Augmentation
from repro.ssl.base import CSSLObjective
from repro.ssl.distill import DistillationHead, teacher_target
from repro.tensor.tensor import Tensor


class ReplayLoss:
    """Interface: scalar training loss for a replay batch."""

    name = "base"
    needs_old_model = False
    needs_noise_scales = False

    def loss(self, batch: np.ndarray, *, objective: CSSLObjective,
             old_objective: CSSLObjective | None, head: DistillationHead | None,
             augment: Augmentation, noise: np.ndarray | None,
             rng: np.random.Generator) -> Tensor:
        """Compute the replay term.

        Parameters
        ----------
        batch:
            (m, ...) stored raw samples drawn from memory for this step.
        objective:
            Live CSSL objective (current model).
        old_objective:
            Frozen snapshot from before this increment (distillation losses).
        head:
            The per-increment distillation head ``p_dis``.
        augment:
            The increment's augmentation pipeline.
        noise:
            (m,) noise scales ``r(x)`` aligned with ``batch`` rows.
        rng:
            Generator for augmentation and noise draws.
        """
        raise NotImplementedError


class CSSReplay(ReplayLoss):
    """Directly optimize ``L_css`` on the memory (Table IV column 2)."""

    name = "css"

    def loss(self, batch, *, objective, old_objective, head, augment, noise, rng) -> Tensor:
        view1 = augment(batch, rng)
        view2 = augment(batch, rng)
        return objective.css_loss(view1, view2)


class DistillReplay(ReplayLoss):
    """``L_dis`` on the memory (Table IV column 3)."""

    name = "dis"
    needs_old_model = True

    def loss(self, batch, *, objective, old_objective, head, augment, noise, rng) -> Tensor:
        if old_objective is None or head is None:
            raise ValueError("distillation replay requires the old model and a head")
        view = augment(batch, rng)
        return head.loss(view, teacher_target(old_objective, view))


class NoisyDistillReplay(DistillReplay):
    """``L_rpl`` — noise-enhanced distillation (Table IV column 4, Eq. 16)."""

    name = "rpl"
    needs_noise_scales = True

    def loss(self, batch, *, objective, old_objective, head, augment, noise, rng) -> Tensor:
        if old_objective is None or head is None:
            raise ValueError("distillation replay requires the old model and a head")
        if noise is None:
            raise ValueError("noisy replay requires per-sample noise scales r(x)")
        view = augment(batch, rng)
        target = teacher_target(old_objective, view)
        sigma = rng.standard_normal(size=target.shape).astype(target.dtype)
        # r(x) may be per-sample (m,) or per-sample-per-dimension (m, d).
        scales = noise if noise.ndim == 2 else noise[:, None]
        target = target + scales.astype(target.dtype) * sigma
        return head.loss(view, target)


def make_replay(name: str) -> ReplayLoss:
    """Factory mapping Table IV column names to replay losses."""
    losses = {"css": CSSReplay, "dis": DistillReplay, "rpl": NoisyDistillReplay}
    try:
        return losses[name]()
    except KeyError as exc:
        raise KeyError(f"unknown replay loss {name!r}; available: {sorted(losses)}") from exc
