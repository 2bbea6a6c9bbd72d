"""The evaluation protocol: per-task probing after each increment.

Following LUMP/CaSSLe, ``A[i, j]`` is measured by fitting a probe on
increment ``j``'s *training* representations (labels used here only) and
scoring increment ``j``'s test split — all representations extracted by the
current model with augmentation disabled.

Three probes implement the same ``fit`` / ``accuracy`` contract and are
selected by name through :data:`PROBE_REGISTRY` (``ContinualConfig.probe``
and the ``--probe`` CLI flag thread the choice through a run):

- ``knn`` — the paper's parameter-free weighted-cosine KNN (Sec. IV-A5);
- ``linear`` — the SGD-trained softmax head (SimCLR/SimSiam protocol);
- ``ridge`` — the closed-form streaming probe (:mod:`repro.eval.ridge`),
  cheap enough to re-probe every seen increment at every task boundary.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.data.splits import Task
from repro.eval.knn import KNNClassifier
from repro.eval.linear_probe import LinearProbe
from repro.eval.ridge import RidgeProbe
from repro.ssl.base import CSSLObjective
from repro.tensor.tensor import no_grad

#: Probe factories by name.  Each factory accepts the protocol keywords
#: (``knn_k``, ``rng``) and returns an object with ``fit(x, y)`` and
#: ``accuracy(x, y)``; register new probes with :func:`register_probe`.
PROBE_REGISTRY: dict[str, Callable[..., object]] = {}


def register_probe(name: str, factory: Callable[..., object]) -> None:
    """Add a probe factory to the registry (names are unique)."""
    if name in PROBE_REGISTRY:
        raise ValueError(f"probe {name!r} is already registered")
    PROBE_REGISTRY[name] = factory


register_probe("knn", lambda knn_k=20, rng=None: KNNClassifier(k=knn_k))
register_probe("linear", lambda knn_k=20, rng=None: LinearProbe(rng=rng))
register_probe("ridge", lambda knn_k=20, rng=None: RidgeProbe())


def probe_names() -> list[str]:
    """Registered probe names, sorted."""
    return sorted(PROBE_REGISTRY)


def make_probe(name: str, *, knn_k: int = 20,
               rng: np.random.Generator | None = None):
    """Construct a probe by registry name."""
    try:
        factory = PROBE_REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown probe {name!r}; registered: "
                         f"{', '.join(probe_names())}") from None
    return factory(knn_k=knn_k, rng=rng)


def extract_representations(objective: CSSLObjective, x: np.ndarray,
                            batch_size: int = 128) -> np.ndarray:
    """Unaugmented representations of ``x`` under the current model (eval mode).

    An empty input returns an empty ``(0, d)`` float32 array (``d`` from
    ``objective.representation_dim``) instead of tripping
    ``np.concatenate`` on an empty chunk list.
    """
    if len(x) == 0:
        return np.zeros((0, objective.representation_dim), dtype=np.float32)
    was_training = objective.training
    objective.eval()
    chunks = []
    try:
        with no_grad():
            for start in range(0, len(x), batch_size):
                chunks.append(objective.representation(x[start:start + batch_size]).numpy())
    finally:
        objective.train(was_training)
    return np.concatenate(chunks, axis=0)


def evaluate_task(objective: CSSLObjective, task: Task, knn_k: int = 20,
                  probe: str = "knn") -> float:
    """Accuracy of the configured probe on one task."""
    train_reps = extract_representations(objective, task.train.x)
    test_reps = extract_representations(objective, task.test.x)
    fitted = make_probe(probe, knn_k=knn_k).fit(train_reps, task.train.y)
    return fitted.accuracy(test_reps, task.test.y)


def evaluate_tasks(objective: CSSLObjective, tasks: list[Task], knn_k: int = 20,
                   probe: str = "knn") -> list[float]:
    """One accuracy per task — a row of the accuracy matrix."""
    return [evaluate_task(objective, task, knn_k, probe=probe) for task in tasks]
