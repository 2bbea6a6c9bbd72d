"""The interface every continual method implements, plus the method factory.

A method wraps the live CSSL objective and contributes:

- per-increment setup/teardown (:meth:`begin_task` / :meth:`end_task`) —
  snapshotting the old model, building distillation heads, selecting memory;
- the per-batch training loss (:meth:`batch_loss`), which the trainer
  back-propagates;
- optional optimizer-step hooks (:meth:`before_step` / :meth:`after_step`)
  used by SI's path-integral importance tracking;
- full run-state serialization (:meth:`state_dict` / :meth:`load_state_dict`)
  so a checkpointed run resumes bit-for-bit: subclasses extend the base
  snapshot with their frozen old models, memory buffers, importance
  accumulators, and any other state the training trajectory depends on.
  Values must be JSON/ndarray-serializable (lint rule SER001).

Two cooperative mixins carry the plumbing the methods share:
:class:`ReplayMemory` (the episodic buffer, its checkpoint key and the
uniform replay draw) and :class:`FrozenTeacher` (the frozen old-model
snapshot and its checkpoint key).  Each extends ``state_dict`` after its
``super()`` call, so the order a method lists its bases in fixes the
order of its checkpoint keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.augment.base import TwoViewAugment
from repro.continual.config import ContinualConfig
from repro.data.splits import Task
from repro.memory.buffer import MemoryBuffer
from repro.nn.module import Parameter
from repro.replay.sampling import ReplaySampling, UniformSampling
from repro.ssl.base import CSSLObjective
from repro.tensor.tensor import Tensor


@dataclass(frozen=True)
class BoundaryEvent:
    """A stream-delivered task-boundary signal (see ``repro.scenarios``).

    The trainer no longer *assumes* sharp boundaries — it forwards
    whatever its boundary controller emits.  ``phase`` is ``"begin"`` or
    ``"end"``; ``task`` is the increment the event describes (for
    drift-detected boundaries, the merged data of every segment in the
    finished virtual task); ``index`` is the task index methods should
    attribute state to (the *virtual* index in task-free streams, which
    can lag the segment index).  ``n_tasks`` is an upper bound on the
    total task count (``"begin"`` only, 0 on ``"end"``), and ``kind``
    records what produced the event: ``"sharp"`` for an explicit stream
    boundary, ``"drift"`` for one the drift heuristic inferred.
    """

    phase: str
    task: Task
    index: int
    n_tasks: int = 0
    kind: str = "sharp"


class ContinualMethod:
    """Base class; the default behaviour is plain finetuning."""

    name = "base"

    def __init__(self, objective: CSSLObjective, config: ContinualConfig,
                 rng: np.random.Generator):
        self.objective = objective
        self.config = config
        self.rng = rng
        # Set by the trainer per increment; transient by design.
        self.augment: TwoViewAugment | None = None  # repro-lint: disable=SER002

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def begin_task(self, task: Task, task_index: int, n_tasks: int) -> None:
        """Called before training on increment ``task_index`` starts."""

    def end_task(self, task: Task, task_index: int) -> None:
        """Called after training on increment ``task_index`` finishes."""

    def on_boundary(self, event: BoundaryEvent) -> None:
        """Dispatch a stream boundary event to the lifecycle hooks.

        The single entry point the trainer's boundary controllers drive:
        sharp streams emit one begin/end pair per segment, task-free
        streams emit them per drift-detected *virtual* task.  The default
        routes to :meth:`begin_task` / :meth:`end_task`, so every
        existing method works under every scenario unchanged; a method
        wanting drift-specific behaviour overrides this and keys on
        ``event.kind``.
        """
        if event.phase == "begin":
            self.begin_task(event.task, event.index, event.n_tasks)
        elif event.phase == "end":
            self.end_task(event.task, event.index)
        else:
            raise ValueError(f"unknown boundary phase {event.phase!r}")

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def trainable_parameters(self) -> list[Parameter]:
        """Parameters the optimizer updates this increment."""
        return self.objective.parameters()

    @property
    def tape_safe(self) -> bool:
        """Whether the trainer may tape-replay this method's training step.

        Conservative default: only methods that keep the base
        :meth:`batch_loss` (a pure, shape-stable function of its array
        arguments) qualify.  Overriding methods typically sample replay
        batches, draw per-step noise, or snapshot old-model outputs — all
        things a recorded tape would freeze.  A second line of defence
        (Dropout, the VAE sampler, BYOL's momentum update poisoning the
        active capture) catches unsafe *objectives* under a safe method.
        """
        return type(self).batch_loss is ContinualMethod.batch_loss

    @property
    def shard_safe(self) -> bool:
        """Whether the trainer may data-parallel shard this method's step.

        Same conservative gate as :attr:`tape_safe`: only the base
        :meth:`batch_loss` — a pure function of the two view arrays — can
        be split across worker replicas, because the replicas rebuild the
        loss from the broadcast parameters alone.  Overriding methods
        carry per-step state the replicas do not have (replay buffers,
        old-model snapshots, method RNG draws); the trainer falls back to
        the single-process step for them and logs the reason.
        """
        return type(self).batch_loss is ContinualMethod.batch_loss

    def batch_loss(self, view1: np.ndarray, view2: np.ndarray,
                   raw: np.ndarray) -> Tensor:
        """Training loss for one batch: two augmented views plus the raw batch."""
        return self.objective.css_loss(view1, view2)

    def before_step(self) -> None:
        """Hook before ``optimizer.step()`` (after ``backward``)."""

    def after_step(self) -> None:
        """Hook after ``optimizer.step()``."""

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything the training trajectory depends on, as a nested dict.

        Leaves must be ndarrays, plain scalars, strings, ``None``, or
        lists/dicts thereof — the checkpoint layer flattens them into an
        ``.npz`` + JSON manifest (see :mod:`repro.runtime.checkpoint`).
        Subclasses call ``super().state_dict()`` and extend the mapping.
        """
        return {"objective": self.objective.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output onto a freshly built method.

        The method (and its objective) must have been constructed with the
        same config/architecture; loading rebinds parameter values and
        rebuilds any auxiliary models in place.
        """
        self.objective.load_state_dict(state["objective"])


class ReplayMemory(ContinualMethod):
    """Mixin: an episodic memory, created at the first increment.

    The buffer splits ``config.memory_budget`` evenly over the task count
    the first :meth:`begin_task` announces, and is checkpointed under
    ``"buffer"``.  Replay batches are drawn by :attr:`sampling`: uniform
    unless the method installs another policy.
    """

    sampling: ReplaySampling = UniformSampling()

    def __init__(self, objective: CSSLObjective, config: ContinualConfig,
                 rng: np.random.Generator):
        super().__init__(objective, config, rng)
        self.buffer: MemoryBuffer | None = None

    def begin_task(self, task: Task, task_index: int, n_tasks: int) -> None:
        super().begin_task(task, task_index, n_tasks)
        if self.buffer is None:
            self.buffer = MemoryBuffer(self.config.memory_budget, n_tasks)

    def random_store_indices(self, task: Task) -> np.ndarray:
        """A uniform draw of up to one quota of distinct ``task.train`` rows."""
        n = len(task.train)
        return self.rng.choice(n, size=min(self.buffer.per_task_quota, n),
                               replace=False)

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["buffer"] = None if self.buffer is None else self.buffer.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.buffer = (None if state["buffer"] is None
                       else MemoryBuffer.from_state_dict(state["buffer"]))


class FrozenTeacher(ContinualMethod):
    """Mixin: a frozen copy of the objective from before each increment.

    :attr:`old_objective` is ``None`` on the first increment and an
    ``eval()``-mode snapshot of the live objective on every later one.
    It is checkpointed under ``"old_objective"``.
    """

    def __init__(self, objective: CSSLObjective, config: ContinualConfig,
                 rng: np.random.Generator):
        super().__init__(objective, config, rng)
        self.old_objective: CSSLObjective | None = None

    def begin_task(self, task: Task, task_index: int, n_tasks: int) -> None:
        super().begin_task(task, task_index, n_tasks)
        self.old_objective = self._frozen_copy() if task_index > 0 else None

    def _frozen_copy(self, state: dict | None = None) -> CSSLObjective:
        # Clone the live objective for structure; a checkpoint then
        # overwrites it with the frozen weights it recorded.
        teacher = self.objective.copy()
        if state is not None:
            teacher.load_state_dict(state)
        teacher.eval()
        return teacher

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["old_objective"] = (None if self.old_objective is None
                                  else self.old_objective.state_dict())
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.old_objective = (None if state["old_objective"] is None
                              else self._frozen_copy(state["old_objective"]))


def make_method(name: str, objective: CSSLObjective, config: ContinualConfig,
                rng: np.random.Generator) -> ContinualMethod:
    """Factory mapping Table III row names to method instances."""
    from repro.continual.cassle import CaSSLe
    from repro.continual.der import DER
    from repro.continual.edsr import EDSR
    from repro.continual.finetune import Finetune
    from repro.continual.generative import GenerativeReplay
    from repro.continual.lin import LinContinual
    from repro.continual.lump import LUMP
    from repro.continual.pfr import PFR
    from repro.continual.si import SynapticIntelligence

    methods = {
        "finetune": Finetune,
        "si": SynapticIntelligence,
        "der": DER,
        "lump": LUMP,
        "cassle": CaSSLe,
        "edsr": EDSR,
        "lin": LinContinual,
        "pfr": PFR,
        "curl": GenerativeReplay,
    }
    try:
        cls = methods[name]
    except KeyError as exc:
        raise KeyError(f"unknown method {name!r}; available: {sorted(methods)}") from exc
    return cls(objective, config, rng)
