"""Probes installed into the ``repro`` package from outside it.

Nothing under ``src/`` is edited: every probe replaces a public callable of
a ``repro.*`` module (or a public method of one of its classes) with a
wrapper that records a span or a count and then calls the original.

Two probe sets exist:

* :func:`install_minimal` — what an untraced run needs for its end-to-end
  metrics: a timestamp at the first training step, one at every
  ``Optimizer.step`` return, a count of task-boundary events, and the
  workers' peak RSS read just before the pool stops them.  A handful of
  clock reads per step.
* :func:`install_tracing` — the minimal set plus a span at every layer
  boundary listed in ``perfbench/README.md``.

Spans are kept in memory as ``[name, start, end, parent]`` and written out
once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

clock = time.monotonic


class Recorder:
    """In-memory spans, counters and step timestamps of one run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.first_step: float | None = None
        self.steps: list[tuple[float, int]] = []
        self.boundaries = 0
        self.worker_peak_kb: list[int] = []
        self.tapes: dict[int, object] = {}

    def begin(self, name: str, start: float | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock() if start is None else start, None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int, end: float | None = None) -> None:
        self.spans[index][2] = clock() if end is None else end
        if self._stack and self._stack[-1] == index:
            self._stack.pop()
        elif index in self._stack:
            self._stack.remove(index)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(amount)


def _vm_hwm_kb(pid) -> int:
    """Peak resident set size of ``pid`` in KiB (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_kb() -> int:
    return _vm_hwm_kb("self")


def _replace_function(module_name: str, name: str, wrapper_factory) -> None:
    """Rebind a module-level function everywhere ``repro`` bound it.

    ``from m import f`` copies the binding into the importing module, so the
    wrapper replaces the original in every loaded ``repro.*`` module that
    holds the same object.
    """
    original = getattr(sys.modules[module_name], name)
    wrapper = functools.wraps(original)(wrapper_factory(original))
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "repro" or mod_name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def _replace_method(cls, name: str, wrapper_factory) -> None:
    original = cls.__dict__[name]
    setattr(cls, name, functools.wraps(original)(wrapper_factory(original)))


def _span_factory(rec: Recorder, span: str, on_call=None, on_return=None):
    def factory(original):
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            index = rec.begin(span)
            try:
                result = original(*args, **kwargs)
            finally:
                rec.end(index)
            if on_return is not None:
                on_return(result)
            return result
        return wrapper
    return factory


def _overriders(base, method: str, package: str) -> list:
    """``base`` and its loaded subclasses in ``package`` that define ``method``."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name == package or mod_name.startswith(package + "."):
            for value in vars(module).values():
                if (inspect.isclass(value) and issubclass(value, base)
                        and method in value.__dict__ and value not in found):
                    found.append(value)
    return found


def install_minimal(rec: Recorder) -> None:
    """Step timestamps, first-step time, boundary count, worker peak RSS."""
    from repro.augment.base import TwoViewAugment
    from repro.continual.method import ContinualMethod
    from repro.optim.base import Optimizer
    from repro.parallel.pool import WorkerPool

    def first_step(original):
        def wrapper(self, *args, **kwargs):
            if rec.first_step is None:
                rec.first_step = clock()
            return original(self, *args, **kwargs)
        return wrapper

    def step_stamp(original):
        def wrapper(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            rec.steps.append((clock(), rec.boundaries))
            return result
        return wrapper

    def boundary_count(original):
        def wrapper(self, *args, **kwargs):
            rec.boundaries += 1
            return original(self, *args, **kwargs)
        return wrapper

    def pool_close(original):
        def wrapper(self, *args, **kwargs):
            for process in self.processes:
                if process is not None and process.pid is not None:
                    rec.worker_peak_kb.append(_vm_hwm_kb(process.pid))
            return original(self, *args, **kwargs)
        return wrapper

    _replace_method(TwoViewAugment, "__call__", first_step)
    _replace_method(Optimizer, "step", step_stamp)
    _replace_method(ContinualMethod, "on_boundary", boundary_count)
    _replace_method(WorkerPool, "close", pool_close)


def install_tracing(rec: Recorder) -> None:
    """Spans at every layer boundary, then :func:`install_minimal` on top.

    Where both sets probe the same method, the minimal probe wraps the span
    probe, so the step timestamp is taken outside the ``optim.step`` span.
    """
    import repro.continual.trainer  # noqa: F401  (binds the names to patch)
    import repro.scenarios.registry  # noqa: F401
    from repro.augment.base import TwoViewAugment
    from repro.continual.method import ContinualMethod
    from repro.data.loader import DataLoader
    from repro.eval.knn import KNNClassifier
    from repro.eval.linear_probe import LinearProbe
    from repro.eval.ridge import RidgeProbe
    from repro.optim.base import Optimizer
    from repro.parallel.step import ShardedStep
    from repro.replay.losses import ReplayLoss
    from repro.runtime.checkpoint import CheckpointManager
    from repro.runtime.guardrail import RunLog
    from repro.selection.base import SelectionStrategy
    from repro.tensor.tape import TapedFunction
    from repro.tensor.tensor import Tensor

    def span(name, **hooks):
        return _span_factory(rec, name, **hooks)

    def loader_iter(original):
        # The loop body between two batches is the trainer's step: the step
        # span opens when a batch is handed out and closes when the next one
        # is asked for, so every call the step makes nests under it.
        def wrapper(self):
            batches = original(self)
            while True:
                index = rec.begin("data.loader")
                try:
                    batch = next(batches)
                except StopIteration:
                    rec.end(index)
                    return
                rec.end(index)
                step = rec.begin("continual.step")
                try:
                    yield batch
                finally:
                    rec.end(step)
        return wrapper

    def checkpoint_bytes(manifest):
        arrays = manifest.with_suffix(".npz")
        rec.count("runtime.checkpoint_bytes",
                  manifest.stat().st_size + arrays.stat().st_size)

    def count_event(original):
        def wrapper(self, kind, **fields):
            rec.count(f"event.{kind}")
            return original(self, kind, **fields)
        return wrapper

    _replace_function("repro.scenarios.registry", "build_stream",
                      span("scenarios.stream_build"))
    _replace_method(DataLoader, "__iter__", loader_iter)
    _replace_method(TwoViewAugment, "__call__", span("augment"))
    for cls in _overriders(ContinualMethod, "batch_loss", "repro.continual"):
        _replace_method(cls, "batch_loss", span("continual.forward"))
    _replace_method(ContinualMethod, "on_boundary", span("continual.boundary"))
    _replace_method(Tensor, "backward", span("tensor.backward"))
    _replace_method(TapedFunction, "__call__", span(
        "tensor.tape",
        on_call=lambda args, kwargs: rec.tapes.setdefault(id(args[0]), args[0])))
    _replace_method(Optimizer, "step", span("optim.step"))
    _replace_method(Optimizer, "zero_grad", span("optim.zero_grad"))
    for cls in _overriders(ReplayLoss, "loss", "repro.replay"):
        _replace_method(cls, "loss", span("replay.loss"))
    _replace_function("repro.replay.noise", "noise_scales",
                      span("replay.noise_scales"))
    for cls in _overriders(SelectionStrategy, "select", "repro.selection"):
        _replace_method(cls, "select", span("selection.select"))
    _replace_function("repro.eval.protocol", "evaluate_tasks", span("eval"))
    _replace_function("repro.eval.protocol", "evaluate_task", span(
        "eval", on_call=lambda args, kwargs: rec.count("eval.calls")))
    _replace_function("repro.eval.protocol", "extract_representations", span(
        "eval.extract",
        on_call=lambda args, kwargs: rec.count(
            "eval.extract_rows", len(args[1] if len(args) > 1 else kwargs["x"]))))
    for cls in (KNNClassifier, LinearProbe, RidgeProbe):
        _replace_method(cls, "fit", span("eval.probe"))
        _replace_method(cls, "accuracy", span("eval.probe"))
    _replace_method(CheckpointManager, "save", span(
        "runtime.checkpoint", on_return=checkpoint_bytes))
    _replace_function("repro.utils.serialization", "save_transfer_matrix",
                      span("utils.transfer_save"))
    _replace_method(ShardedStep, "__init__", span("parallel.pool_start"))
    _replace_method(ShardedStep, "loss_backward", span("parallel.loss_backward"))
    _replace_method(RunLog, "append", count_event)
    install_minimal(rec)
