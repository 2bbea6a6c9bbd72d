"""PERF002 — allocation discipline on the tape-replay path.

The memory planner (:mod:`repro.tensor.memplan`) promises that a warm
planned replay allocates no op output or scratch buffer: op outputs are
arena slabs bound once by the :class:`MemoryPlan`, op scratch comes from
the process-wide cache, and gradients accumulate into stable leaf
``.grad`` storage.  A raw ``np.empty``/``np.zeros``/
``np.concatenate``/... call reachable from ``Tape.replay`` silently
re-introduces per-step allocator traffic that the plan can neither see
nor account for — the bench's allocator-call counters drift and the
arena's peak-RSS win erodes one hidden allocation at a time.

The rule walks the call graph from the replay entry point and flags
allocation-constructor calls, with three sanctioned escapes:

1. :mod:`repro.tensor.memplan` itself — the arena API is *where*
   allocation is supposed to happen (``alloc``, the scratch cache, the
   arena backing buffer).
2. Calls passing ``out=`` — they write into caller storage (an arena
   view on a planned replay) and allocate only when ``out`` is ``None``.
3. The backward slice (``backward`` methods, ``_replay_backward``):
   gradient arrays belong to the leaves and the autograd engine, not to
   the forward plan, so the walk does not descend into it.

Anything else needs an explicit justified suppression — the point of the
rule is that new allocations on the replay path are a *decision*, not an
accident.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.index import FunctionInfo, ProjectIndex
from repro.analysis.linter import ProjectRule, Violation

#: Call-graph entry point of a tape replay (forward slice), matched by
#: qualified method name like MP002's ``worker_main`` root.
_REPLAY_ROOTS = {"Tape.replay"}

#: Functions the walk must not descend into: the backward slice owns its
#: own (leaf-stable) storage story.
_BACKWARD_NAMES = {"backward", "_replay_backward"}

#: numpy constructors that always materialize a fresh array.
_ALLOCATORS = {
    "empty", "zeros", "ones", "full",
    "empty_like", "zeros_like", "ones_like", "full_like",
    "concatenate", "stack", "vstack", "hstack", "dstack",
    "pad", "ascontiguousarray", "copy", "repeat", "tile",
}

#: The arena API module — allocation lives here by design.
_ARENA_MODULE = "repro.tensor.memplan"


class AllocDisciplineRule(ProjectRule):
    code = "PERF002"
    description = ("raw numpy allocation reachable from the tape-replay "
                   "path outside the arena API")

    def check_project(self, index: ProjectIndex) -> Iterator[Violation]:
        reachable = self._forward_slice(index)
        for fq in sorted(reachable):
            info = index.functions[fq]
            if info.module.name == _ARENA_MODULE:
                continue
            yield from self._allocations(info)

    # ------------------------------------------------------------------
    def _forward_slice(self, index: ProjectIndex) -> set[str]:
        """Replay-reachable functions, never descending into backward."""
        seen: set[str] = set()
        stack = [fq for fq, info in index.functions.items()
                 if info.qualname in _REPLAY_ROOTS]
        while stack:
            fq = stack.pop()
            if fq in seen:
                continue
            seen.add(fq)
            for callee in index.calls.get(fq, ()):
                if callee in seen:
                    continue
                info = index.functions.get(callee)
                if info is None or info.name in _BACKWARD_NAMES:
                    continue
                stack.append(callee)
        return seen

    # ------------------------------------------------------------------
    def _allocations(self, info: FunctionInfo) -> Iterator[Violation]:
        module = info.module
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            name = self._allocator_name(module, node)
            if name is None:
                continue
            yield Violation(
                path=module.path, line=node.lineno, code=self.code,
                message=(f"np.{name}(...) in replay-reachable "
                         f"{info.qualname}() allocates a fresh array every "
                         f"step, invisible to the memory plan; route the "
                         f"buffer through repro.tensor.memplan (alloc/"
                         f"acquire, or pass the op's out= through)"))

    @staticmethod
    def _allocator_name(module, call: ast.Call) -> str | None:
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr not in _ALLOCATORS:
            return None
        # np.concatenate(..., out=slab) writes into caller storage — the
        # whole point of the discipline — so it is not an allocation.
        if any(kw.arg == "out" for kw in call.keywords):
            return None
        resolved = module.resolve(func)
        if resolved == f"numpy.{func.attr}" \
                or resolved.startswith("numpy.") and resolved.endswith(f".{func.attr}"):
            return func.attr
        return None
