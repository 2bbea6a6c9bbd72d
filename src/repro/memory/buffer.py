"""Budget-limited episodic memory (the ``{M_i}`` of Def. 3).

The paper's protocol stores a fixed per-increment quota summing to the
total budget ``s`` (e.g. 640 over 20 CIFAR-100 tasks = 32 per task; Fig. 7
states "32 samples are stored for each data subset").  Besides the raw
samples, the buffer carries per-sample metadata the replay losses need:
the noise scale ``r(x)`` (Sec. III-B) and auxiliary targets (DER stores the
backbone outputs the model produced when the sample was stored).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class MemoryRecord:
    """Everything stored for one past increment."""

    task_id: int
    samples: np.ndarray                       # (m, ...) raw inputs
    noise_scales: np.ndarray | None = None    # r(x), EDSR only: (m, d) in the
                                              # default "vector" noise mode,
                                              # (m,) in "scalar" mode
    targets: np.ndarray | None = None         # (m, d) stored outputs, DER only
    labels: np.ndarray | None = None          # (m,) evaluation-only labels

    def __len__(self) -> int:
        return len(self.samples)

    def state_dict(self) -> dict:
        """Serializable snapshot (arrays copied; optional fields stay None)."""
        return {
            "task_id": int(self.task_id),
            "samples": self.samples.copy(),
            "noise_scales": None if self.noise_scales is None else self.noise_scales.copy(),
            "targets": None if self.targets is None else self.targets.copy(),
            "labels": None if self.labels is None else self.labels.copy(),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "MemoryRecord":
        """Rebuild a record from :meth:`state_dict` output."""
        return cls(
            task_id=int(state["task_id"]),
            samples=np.asarray(state["samples"]),
            noise_scales=None if state["noise_scales"] is None else np.asarray(state["noise_scales"]),
            targets=None if state["targets"] is None else np.asarray(state["targets"]),
            labels=None if state["labels"] is None else np.asarray(state["labels"]),
        )


class MemoryBuffer:
    """Fixed total budget split evenly across the expected task count."""

    def __init__(self, total_budget: int, n_tasks: int):
        if total_budget < 0:
            raise ValueError("total_budget must be >= 0")
        if n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        self.total_budget = total_budget
        self.n_tasks = n_tasks
        self.records: list[MemoryRecord] = []

    @property
    def per_task_quota(self) -> int:
        return self.total_budget // self.n_tasks

    def __len__(self) -> int:
        return sum(len(r) for r in self.records)

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    @property
    def unused_budget(self) -> int:
        """Budget the even integer split cannot assign (``s mod n_tasks``)."""
        return self.total_budget - self.per_task_quota * self.n_tasks

    def add(self, record: MemoryRecord) -> None:
        if len(record) > self.per_task_quota:
            hint = ""
            if self.unused_budget:
                hint = (f" (the even split of budget {self.total_budget} over "
                        f"{self.n_tasks} tasks leaves {self.unused_budget} "
                        f"samples of quota unused)")
            raise ValueError(
                f"record of {len(record)} samples exceeds per-task quota "
                f"{self.per_task_quota}{hint}")
        if any(r.task_id == record.task_id for r in self.records):
            raise ValueError(f"task {record.task_id} already stored")
        self.records.append(record)

    def all_samples(self) -> np.ndarray:
        if self.is_empty:
            raise ValueError("memory is empty")
        return np.concatenate([r.samples for r in self.records], axis=0)

    def all_noise_scales(self) -> np.ndarray:
        scales = [r.noise_scales for r in self.records]
        if any(s is None for s in scales):
            raise ValueError("some records lack noise scales")
        ndims = {s.ndim for s in scales}
        if len(ndims) > 1:
            per_task = ", ".join(f"task {r.task_id}: ndim {r.noise_scales.ndim}"
                                 for r in self.records)
            raise ValueError(
                "noise scales mix vector (m, d) and scalar (m,) modes across "
                f"records ({per_task}); store all tasks with the same "
                "noise_mode")
        return np.concatenate(scales, axis=0)

    def all_targets(self) -> np.ndarray:
        targets = [r.targets for r in self.records]
        if any(t is None for t in targets):
            raise ValueError("some records lack stored targets")
        return np.concatenate(targets, axis=0)

    def state_dict(self) -> dict:
        """Serializable snapshot of the buffer: budget split plus all records."""
        return {
            "total_budget": self.total_budget,
            "n_tasks": self.n_tasks,
            "records": [r.state_dict() for r in self.records],
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "MemoryBuffer":
        """Rebuild a buffer (and its records) from :meth:`state_dict` output."""
        buffer = cls(int(state["total_budget"]), int(state["n_tasks"]))
        for record_state in state["records"]:
            buffer.add(MemoryRecord.from_state_dict(record_state))
        return buffer
