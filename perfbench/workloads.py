"""The benchmark's workloads, as the arguments ``repro run`` would get.

Every workload trains on ``cifar10-like`` at ``--scale ci`` with the default
:class:`repro.continual.ContinualConfig` plus the overrides below.  The
workload seed becomes the run seed and, for scenario workloads, the scenario
seed.  Why each workload exists is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

BENCHMARK = "cifar10-like"
SCALE = "ci"


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    overrides: dict = field(default_factory=dict)
    checkpoint: bool = False
    #: Overrides of a reference run whose outputs this workload must match
    #: bit for bit (the worker-count parity contract), or ``None``.
    reference: dict | None = None

    def cli(self) -> str:
        """The equivalent ``repro run`` command line, for reports."""
        parts = ["repro run", self.method, BENCHMARK, "--scale", SCALE]
        for key, value in self.overrides.items():
            parts += [f"--{key.replace('_', '-')}", str(value)]
        if self.checkpoint:
            parts += ["--checkpoint-dir", "<tmp>"]
        return " ".join(parts)


WORKLOADS = {w.name: w for w in (
    Workload("edsr-ci", "edsr"),
    Workload("finetune-ci", "finetune"),
    Workload("edsr-long-stream", "edsr",
             {"scenario": "long_sequence", "epochs": 1}, checkpoint=True),
    Workload("finetune-sharded", "finetune", {"workers": 2},
             reference={"workers": 1}),
)}
