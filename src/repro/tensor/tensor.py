"""The :class:`Tensor` class: a numpy array with a gradient tape.

Every differentiable operation dispatches through the op registry's single
:func:`repro.tensor.engine.apply` choke point: the op's ``forward`` runs on
the raw arrays, the result :class:`Tensor` records the op class, a
:class:`~repro.tensor.engine.Context` of eagerly-saved arrays, and its
parent tensors.  ``backward()`` walks the graph once in reverse topological
order and calls each op's ``backward(ctx, grad)`` exactly once — even for
diamond-shaped graphs — distributing the returned per-input gradients.

Gradient accumulation reuses buffers: the first contribution to a node may
be borrowed from the op that produced it, but as soon as a second
contribution arrives the engine owns the accumulator and every further
contribution is added in place via ``np.add(..., out=...)``.  Leaf ``.grad``
arrays behave the same way, so ``zero_grad(set_to_none=False)`` makes the
``.grad`` identity stable across steps (see DESIGN.md for the contract).
"""

from __future__ import annotations

import numpy as np

from repro.tensor import anomaly, engine, memplan
from repro.tensor.engine import DEFAULT_DTYPE, is_grad_enabled, no_grad  # noqa: F401  (re-exported API)

_apply = engine.apply


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    Sums over the leading axes that were added by broadcasting, then over
    axes whose original extent was 1.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value, dtype=DEFAULT_DTYPE) -> np.ndarray:
    if isinstance(value, np.ndarray):
        # Preserve floating dtypes (float64 graphs are used by gradcheck);
        # promote anything else (ints, bools) to the default float dtype.
        if value.dtype.kind == "f":
            return value
        return value.astype(dtype)
    if isinstance(value, np.floating):
        return np.asarray(value)
    return np.asarray(value, dtype=dtype)


class Tensor:
    """A numpy-backed tensor that records operations for reverse-mode AD.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float32`` unless already a numpy
        array of the requested dtype.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.

    Notes
    -----
    ``data`` is a property backed by the ``_data`` slot.  Rebinding it
    (``t.data = arr``) bumps the tensor's ``_version`` counter; the engine
    records its parents' versions at tape time and :meth:`backward` raises
    if a tensor saved for backward was rebound afterwards (stale-graph
    protection, the analog of torch's in-place version counters).  In-place
    writes through the array itself (``t.data[...] = x``) bypass the
    counter and are instead forbidden statically by lint rule AD001.

    Tensors built from Python/numpy scalars are *weak* for dtype promotion
    (``engine.result_dtype``): a float64 scalar constant cannot upcast a
    float32 graph.
    """

    __slots__ = ("_data", "requires_grad", "grad", "_parents", "_parent_versions",
                 "_op", "_op_cls", "_ctx", "_inputs", "_weak",
                 "_version", "_created_at")

    def __init__(self, data, requires_grad: bool = False, *, _op: str = ""):
        self._data = _as_array(data)
        self._weak = not isinstance(data, (np.ndarray, Tensor)) and self._data.ndim == 0
        self._version = 0
        self.requires_grad = bool(requires_grad) and engine._GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._parent_versions: tuple = ()
        self._op = _op
        self._op_cls = None
        self._ctx = None
        self._inputs: tuple = ()
        self._created_at = anomaly.capture_stack() if anomaly.is_anomaly_enabled() else None

    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, value) -> None:
        self._data = value if isinstance(value, np.ndarray) else _as_array(value)
        self._version += 1

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        """Zero tensor, allocated through :func:`repro.tensor.memplan.zeros`."""
        return Tensor(memplan.zeros(shape, DEFAULT_DTYPE),
                      requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        """One-filled tensor, allocated through :func:`repro.tensor.memplan.alloc`."""
        buf = memplan.alloc(shape, DEFAULT_DTYPE)
        buf.fill(1)
        return Tensor(buf, requires_grad=requires_grad)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def ndim(self) -> int:
        return self._data.ndim

    @property
    def size(self) -> int:
        return self._data.size

    @property
    def dtype(self):
        return self._data.dtype

    def __len__(self) -> int:
        return len(self._data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self._data

    def item(self) -> float:
        return float(self._data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing this data but cut from the tape.

        This is the paper's stop-gradient operator ``sg(.)``.
        """
        return Tensor(self._data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self._data.copy(), requires_grad=False)

    def zero_grad(self, set_to_none: bool = True) -> None:
        """Clear the gradient; ``set_to_none=False`` keeps the buffer.

        With ``set_to_none=False`` the existing ``.grad`` array is zero-filled
        in place, so the next backward accumulates into the same buffer with
        no allocation and the ``.grad`` identity stays stable across steps.
        """
        if set_to_none or self.grad is None:
            self.grad = None
        else:
            self.grad.fill(0.0)

    def __repr__(self) -> str:
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op or 'leaf'}{grad_tag})"

    # ------------------------------------------------------------------
    # Autodiff driver
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to 1 for scalar outputs; required for
            non-scalar outputs.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("backward() on a non-scalar tensor requires an explicit gradient")
            grad = np.ones_like(self._data)
        grad = _as_array(grad, self._data.dtype)

        capture = engine._ACTIVE_CAPTURE
        if capture is not None:
            capture.record_backward(self, grad)

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        check_anomaly = anomaly.is_anomaly_enabled()
        if check_anomaly:
            anomaly.check_backward(grad, self._op, self._created_at)

        # ``grads`` accumulates per-node gradients; ``owned`` marks the ids
        # whose accumulator array this walk allocated itself, so further
        # contributions may be added in place (buffer reuse) without risking
        # corruption of an array an op's backward returned by reference.
        grads: dict[int, np.ndarray] = {id(self): grad}
        owned: set[int] = set()
        for node in reversed(order):
            key = id(node)
            node_grad = grads.pop(key, None)
            if node_grad is None:
                continue
            if not node._parents:
                # Leaf: accumulate into .grad, reusing the buffer in place
                # once it exists (the identity-stability contract).  .grad
                # always carries the leaf's own dtype — a float64 scalar
                # upstream cannot upcast a float32 parameter's gradient.
                if node_grad.dtype != node._data.dtype:
                    node_grad = node_grad.astype(node._data.dtype)
                    owned.add(key)
                buf = node.grad
                if buf is None:
                    node.grad = node_grad if key in owned else node_grad.copy()
                elif buf.shape == node_grad.shape and buf.dtype == node_grad.dtype:
                    np.add(buf, node_grad, out=buf)
                else:
                    node.grad = buf + node_grad
                continue
            for parent, saved in zip(node._parents, node._parent_versions):
                if parent._version != saved:
                    raise RuntimeError(
                        f"a tensor saved for the backward of op '{node._op or 'unknown'}' "
                        f"(a {parent._op or 'leaf'} tensor, shape {parent.shape}) was "
                        f"modified after the forward pass: its .data was rebound "
                        f"{parent._version - saved} time(s) since the op was taped. "
                        f"Run backward() before mutating parameters, or detach() the "
                        f"tensor if the mutation is intentional."
                    )
            contributions = node._op_cls.backward(node._ctx, node_grad)
            for parent, contribution in zip(node._inputs, contributions):
                if contribution is None or not parent.requires_grad:
                    continue
                contribution = np.asarray(contribution)
                if check_anomaly:
                    anomaly.check_backward(contribution, node._op,
                                           node._created_at)
                pkey = id(parent)
                accumulated = grads.get(pkey)
                if accumulated is None:
                    grads[pkey] = contribution
                elif (pkey in owned and accumulated.shape == contribution.shape
                      and accumulated.dtype == contribution.dtype):
                    np.add(accumulated, contribution, out=accumulated)
                else:
                    grads[pkey] = accumulated + contribution
                    owned.add(pkey)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        return _apply("add", self, other)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return _apply("neg", self)

    def __sub__(self, other) -> "Tensor":
        return _apply("sub", self, other)

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        return _apply("mul", self, other)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        return _apply("div", self, other)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ supports scalar exponents only")
        return _apply("pow", self, exponent=float(exponent))

    def __matmul__(self, other) -> "Tensor":
        return _apply("matmul", self, other)

    # Comparisons produce plain numpy bool arrays (non-differentiable).
    def __gt__(self, other):
        other_data = other.data if isinstance(other, Tensor) else other
        return self._data > other_data

    def __lt__(self, other):
        other_data = other.data if isinstance(other, Tensor) else other
        return self._data < other_data

    def __ge__(self, other):
        other_data = other.data if isinstance(other, Tensor) else other
        return self._data >= other_data

    def __le__(self, other):
        other_data = other.data if isinstance(other, Tensor) else other
        return self._data <= other_data

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _apply("reshape", self, shape=shape)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*shape)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        return _apply("transpose", self, axes=axes)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        return _apply("getitem", self, index=index)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _apply("sum", self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _apply("max", self, axis=axis, keepdims=keepdims)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    def abs(self) -> "Tensor":
        return _apply("abs", self)

    def trace(self) -> "Tensor":
        """Trace of the trailing 2-D matrix (used by the Barlow loss)."""
        if self.ndim != 2:
            raise ValueError("trace() expects a 2-D tensor")
        return _apply("trace", self)


engine._bind_tensor_class(Tensor)

# Populate the op registry; core_ops depends only on engine, so this import
# cannot cycle back here.
from repro.tensor import core_ops  # noqa: E402,F401


def tensor(data, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)
