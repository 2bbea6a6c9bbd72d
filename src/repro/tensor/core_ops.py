"""Registered :class:`~repro.tensor.engine.Op` classes for every primitive.

Part one is the core surface that used to live as per-call closures in
``tensor.py``/``ops.py`` (arithmetic, shape, reductions, activations); part
two is the fused kernels (linear+bias[+relu], l2-normalize, row-wise cosine,
normalized MSE, batch-norm) whose backward passes compute all input
gradients from shared intermediates in a single call.  Each fused op has an
exact unfused reference composition — the parity property tests in
``tests/tensor/test_fusion_parity.py`` pin forward and gradients of the two
paths against each other.

All ops save what backward needs eagerly via ``ctx.save(...)`` and consult
``ctx.needs_input_grad`` to skip gradients nobody will consume.  ``None``
marks a skipped input gradient.

Allocation discipline: an op whose ``forward`` takes ``out=None`` lets the
tape's memory planner hand it an arena view for its output.  Each such op
has one body: the ufunc that produces the result takes ``out=out``, so
numpy allocates when ``out`` is ``None`` and the same ufunc chain writes
into the caller's array otherwise — **bit-for-bit identical** by
construction.  Values kept for backward are plain arrays; forward-only
temporaries (the squares behind a norm, maximum's comparison) come from
:func:`repro.tensor.memplan.acquire` and go back before ``forward``
returns.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import memplan
from repro.tensor.engine import Context, Op, register


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _dot(u, v, axis, keepdims: bool = False, out=None):
    """``(u * v).sum(axis)`` with the product staged in cache scratch."""
    prod = memplan.acquire(np.broadcast(u, v).shape, np.result_type(u, v))
    np.multiply(u, v, out=prod)
    total = prod.sum(axis=axis, keepdims=keepdims, out=out)
    memplan.release(prod)
    return total


def _norm(x, axis, eps: float):
    """``sqrt(sum(x * x, axis, keepdims=True) + eps)``."""
    return np.sqrt(_dot(x, x, axis, keepdims=True) + eps)


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
@register
class AddOp(Op):
    name = "add"

    @staticmethod
    def forward(ctx: Context, a, b, out=None):
        ctx.shapes = (a.shape, b.shape)
        return np.add(a, b, out=out)

    @staticmethod
    def backward(ctx: Context, grad):
        sa, sb = ctx.shapes
        ga = _unbroadcast(grad, sa) if ctx.needs_input_grad[0] else None
        gb = _unbroadcast(grad, sb) if ctx.needs_input_grad[1] else None
        return ga, gb


@register
class NegOp(Op):
    name = "neg"

    @staticmethod
    def forward(ctx: Context, a, out=None):
        return np.negative(a, out=out)

    @staticmethod
    def backward(ctx: Context, grad):
        return (-grad,)


@register
class SubOp(Op):
    name = "sub"

    @staticmethod
    def forward(ctx: Context, a, b, out=None):
        ctx.shapes = (a.shape, b.shape)
        return np.subtract(a, b, out=out)

    @staticmethod
    def backward(ctx: Context, grad):
        sa, sb = ctx.shapes
        ga = _unbroadcast(grad, sa) if ctx.needs_input_grad[0] else None
        gb = _unbroadcast(-grad, sb) if ctx.needs_input_grad[1] else None
        return ga, gb


@register
class MulOp(Op):
    name = "mul"

    @staticmethod
    def forward(ctx: Context, a, b, out=None):
        ctx.save(a, b)
        return np.multiply(a, b, out=out)

    @staticmethod
    def backward(ctx: Context, grad):
        a, b = ctx.saved
        ga = _unbroadcast(grad * b, a.shape) if ctx.needs_input_grad[0] else None
        gb = _unbroadcast(grad * a, b.shape) if ctx.needs_input_grad[1] else None
        return ga, gb


@register
class DivOp(Op):
    name = "div"

    @staticmethod
    def forward(ctx: Context, a, b, out=None):
        ctx.save(a, b)
        return np.true_divide(a, b, out=out)

    @staticmethod
    def backward(ctx: Context, grad):
        a, b = ctx.saved
        ga = _unbroadcast(grad / b, a.shape) if ctx.needs_input_grad[0] else None
        gb = (_unbroadcast(-grad * a / (b ** 2), b.shape)
              if ctx.needs_input_grad[1] else None)
        return ga, gb


@register
class PowOp(Op):
    name = "pow"

    @staticmethod
    def forward(ctx: Context, a, *, exponent: float, out=None):
        ctx.save(a)
        ctx.exponent = exponent
        # The scalar fast paths numpy's ``a ** exponent`` takes, so the
        # result is bit-for-bit that expression's (a test pins this).
        if exponent == 2:
            return np.square(a, out=out)
        if exponent == 1:
            return np.positive(a, out=out)
        if exponent == 0.5:
            return np.sqrt(a, out=out)
        if exponent == -1:
            return np.reciprocal(a, out=out)
        return np.power(a, exponent, out=out)

    @staticmethod
    def backward(ctx: Context, grad):
        (a,) = ctx.saved
        e = ctx.exponent
        return (grad * e * a ** (e - 1),)


@register
class MatMulOp(Op):
    name = "matmul"

    @staticmethod
    def forward(ctx: Context, a, b, out=None):
        ctx.save(a, b)
        return np.matmul(a, b, out=out)

    @staticmethod
    def backward(ctx: Context, grad):
        a, b = ctx.saved
        ga = gb = None
        if ctx.needs_input_grad[0]:
            if b.ndim == 1:
                ga = np.outer(grad, b) if a.ndim == 2 else grad * b
            else:
                ga = _unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape)
        if ctx.needs_input_grad[1]:
            if a.ndim == 1:
                gb = np.outer(a, grad) if b.ndim == 2 else grad * a
            else:
                gb = _unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape)
        return ga, gb


# ----------------------------------------------------------------------
# Shape manipulation
# ----------------------------------------------------------------------
@register
class ReshapeOp(Op):
    # Returns a view of its input — owns no storage, planner-exempt (the
    # planner detects the alias and unions the lifetimes instead).
    name = "reshape"

    @staticmethod
    def forward(ctx: Context, a, *, shape):
        ctx.original = a.shape
        return a.reshape(shape)

    @staticmethod
    def backward(ctx: Context, grad):
        return (grad.reshape(ctx.original),)


@register
class TransposeOp(Op):
    # View op, like reshape: no storage of its own.
    name = "transpose"

    @staticmethod
    def forward(ctx: Context, a, *, axes):
        ctx.inverse = np.argsort(axes)
        return a.transpose(axes)

    @staticmethod
    def backward(ctx: Context, grad):
        return (grad.transpose(ctx.inverse),)


@register
class GetItemOp(Op):
    # Basic indexing returns a view, advanced indexing has no out= form;
    # stays on the fallback allocator.
    name = "getitem"

    @staticmethod
    def forward(ctx: Context, a, *, index):
        ctx.index = index
        ctx.shape = a.shape
        ctx.dtype = a.dtype
        return np.asarray(a[index])

    @staticmethod
    def backward(ctx: Context, grad):
        full = np.zeros(ctx.shape, dtype=ctx.dtype)
        np.add.at(full, ctx.index, grad)
        return (full,)


@register
class ConcatOp(Op):
    name = "concat"

    @staticmethod
    def forward(ctx: Context, *arrays, axis: int = 0, out=None):
        ctx.axis = axis
        ctx.offsets = np.cumsum([0] + [a.shape[axis] for a in arrays])
        return np.concatenate(arrays, axis=axis, out=out)

    @staticmethod
    def backward(ctx: Context, grad):
        axis, offsets = ctx.axis, ctx.offsets
        slicer = [slice(None)] * grad.ndim
        grads = []
        for i in range(len(offsets) - 1):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(grad[tuple(slicer)])
        return tuple(grads)


@register
class StackOp(Op):
    name = "stack"

    @staticmethod
    def forward(ctx: Context, *arrays, axis: int = 0, out=None):
        ctx.axis = axis
        ctx.count = len(arrays)
        return np.stack(arrays, axis=axis, out=out)

    @staticmethod
    def backward(ctx: Context, grad):
        return tuple(np.take(grad, i, axis=ctx.axis) for i in range(ctx.count))


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
@register
class SumOp(Op):
    name = "sum"

    @staticmethod
    def forward(ctx: Context, a, *, axis=None, keepdims: bool = False, out=None):
        ctx.shape = a.shape
        ctx.axis = axis
        ctx.keepdims = keepdims
        return np.asarray(a.sum(axis=axis, keepdims=keepdims, out=out))

    @staticmethod
    def backward(ctx: Context, grad):
        if ctx.axis is None:
            return (np.broadcast_to(grad, ctx.shape),)
        expanded = grad if ctx.keepdims else np.expand_dims(grad, ctx.axis)
        return (np.broadcast_to(expanded, ctx.shape),)


@register
class MaxOp(Op):
    name = "max"

    @staticmethod
    def forward(ctx: Context, a, *, axis=None, keepdims: bool = False, out=None):
        out = np.asarray(a.max(axis=axis, keepdims=keepdims, out=out))
        ctx.save(a, out)
        ctx.axis = axis
        ctx.keepdims = keepdims
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        a, out = ctx.saved
        axis, keepdims = ctx.axis, ctx.keepdims
        if axis is None:
            mask = (a == out).astype(grad.dtype)
            mask /= mask.sum()
            return (mask * grad,)
        expanded = out if keepdims else np.expand_dims(out, axis)
        mask = (a == expanded).astype(grad.dtype)
        mask /= mask.sum(axis=axis, keepdims=True)
        g_expanded = grad if keepdims else np.expand_dims(grad, axis)
        return (mask * g_expanded,)


@register
class AbsOp(Op):
    name = "abs"

    @staticmethod
    def forward(ctx: Context, a, out=None):
        ctx.save(a)
        return np.absolute(a, out=out)

    @staticmethod
    def backward(ctx: Context, grad):
        (a,) = ctx.saved
        return (grad * np.sign(a),)


@register
class TraceOp(Op):
    # Rare scalar-output op; takes no out=, so stays on the fallback
    # allocator.
    name = "trace"

    @staticmethod
    def forward(ctx: Context, a):
        ctx.shape = a.shape
        ctx.dtype = a.dtype
        return np.asarray(np.trace(a), dtype=a.dtype)

    @staticmethod
    def backward(ctx: Context, grad):
        n, m = ctx.shape
        return (np.eye(n, m, dtype=ctx.dtype) * grad,)


# ----------------------------------------------------------------------
# Pointwise nonlinearities
# ----------------------------------------------------------------------
@register
class ExpOp(Op):
    name = "exp"

    @staticmethod
    def forward(ctx: Context, a, out=None):
        out = np.exp(a, out=out)
        ctx.save(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        (out,) = ctx.saved
        return (grad * out,)


@register
class LogOp(Op):
    name = "log"

    @staticmethod
    def forward(ctx: Context, a, out=None):
        ctx.save(a)
        return np.log(a, out=out)

    @staticmethod
    def backward(ctx: Context, grad):
        (a,) = ctx.saved
        return (grad / a,)


@register
class SqrtOp(Op):
    name = "sqrt"

    @staticmethod
    def forward(ctx: Context, a, out=None):
        out = np.sqrt(a, out=out)
        ctx.save(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        (out,) = ctx.saved
        return (grad * 0.5 / out,)


@register
class TanhOp(Op):
    name = "tanh"

    @staticmethod
    def forward(ctx: Context, a, out=None):
        out = np.tanh(a, out=out)
        ctx.save(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        (out,) = ctx.saved
        return (grad * (1.0 - out * out),)


@register
class SigmoidOp(Op):
    name = "sigmoid"

    @staticmethod
    def forward(ctx: Context, a, out=None):
        # ``1.0 / (1.0 + exp(-a))``, each step into ``out`` when given.
        y = np.negative(a, out=out)
        y = np.exp(y, out=out)
        y = np.add(1.0, y, out=out)
        out = np.true_divide(1.0, y, out=out)
        ctx.save(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        (out,) = ctx.saved
        return (grad * out * (1.0 - out),)


@register
class ReluOp(Op):
    name = "relu"

    @staticmethod
    def forward(ctx: Context, a, out=None):
        ctx.mask = a > 0
        return np.maximum(a, 0.0, out=out)

    @staticmethod
    def backward(ctx: Context, grad):
        return (grad * ctx.mask,)


@register
class LeakyReluOp(Op):
    # np.where has no out= form; this op stays on the fallback allocator.
    name = "leaky_relu"

    @staticmethod
    def forward(ctx: Context, a, *, negative_slope: float = 0.01):
        ctx.slope = np.where(a > 0, 1.0, negative_slope).astype(a.dtype)
        return np.where(a > 0, a, negative_slope * a)

    @staticmethod
    def backward(ctx: Context, grad):
        return (grad * ctx.slope,)


@register
class MaximumOp(Op):
    name = "maximum"

    @staticmethod
    def forward(ctx: Context, a, b, out=None):
        ctx.shapes = (a.shape, b.shape)
        ge = memplan.acquire(np.broadcast(a, b).shape, np.bool_)
        np.greater_equal(a, b, out=ge)
        ctx.a_wins = ge.astype(a.dtype)
        memplan.release(ge)
        return np.maximum(a, b, out=out)

    @staticmethod
    def backward(ctx: Context, grad):
        sa, sb = ctx.shapes
        ga = (_unbroadcast(grad * ctx.a_wins, sa)
              if ctx.needs_input_grad[0] else None)
        gb = (_unbroadcast(grad * (1.0 - ctx.a_wins), sb)
              if ctx.needs_input_grad[1] else None)
        return ga, gb


@register
class WhereOp(Op):
    # np.where has no out= form; stays on the fallback allocator.
    name = "where"

    @staticmethod
    def forward(ctx: Context, a, b, *, condition):
        ctx.condition = np.asarray(condition)
        ctx.shapes = (a.shape, b.shape)
        return np.where(ctx.condition, a, b)

    @staticmethod
    def backward(ctx: Context, grad):
        cond = ctx.condition
        sa, sb = ctx.shapes
        ga = (_unbroadcast(np.where(cond, grad, 0.0), sa)
              if ctx.needs_input_grad[0] else None)
        gb = (_unbroadcast(np.where(cond, 0.0, grad), sb)
              if ctx.needs_input_grad[1] else None)
        return ga, gb


# ----------------------------------------------------------------------
# Fused kernels
# ----------------------------------------------------------------------
@register
class LinearOp(Op):
    """Fused ``x @ w + b`` for 2-D activations (one kernel, one tape node).

    Reference composition: ``matmul`` then broadcast ``add``.
    """

    name = "linear"

    @staticmethod
    def forward(ctx: Context, x, w, *bias, out=None):
        ctx.save(x, w)
        out = np.matmul(x, w, out=out)
        if bias:
            out += bias[0]
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        x, w = ctx.saved
        gx = grad @ w.T if ctx.needs_input_grad[0] else None
        gw = x.T @ grad if ctx.needs_input_grad[1] else None
        if len(ctx.needs_input_grad) > 2 and ctx.needs_input_grad[2]:
            return gx, gw, grad.sum(axis=0)
        return (gx, gw) + (None,) * (len(ctx.needs_input_grad) - 2)


@register
class LinearReluOp(Op):
    """Fused ``relu(x @ w + b)`` — the MLP/projector hidden-layer kernel.

    Reference composition: ``matmul`` + ``add`` + ``relu``.  The pre-ReLU
    activation never materializes on the tape; only its sign mask survives
    to backward.
    """

    name = "linear_relu"

    @staticmethod
    def forward(ctx: Context, x, w, *bias, out=None):
        y = np.matmul(x, w, out=out)
        if bias:
            y += bias[0]
        ctx.save(x, w, y > 0)
        return np.maximum(y, 0.0, out=y)

    @staticmethod
    def backward(ctx: Context, grad):
        x, w, mask = ctx.saved
        gy = grad * mask
        gx = gy @ w.T if ctx.needs_input_grad[0] else None
        gw = x.T @ gy if ctx.needs_input_grad[1] else None
        if len(ctx.needs_input_grad) > 2 and ctx.needs_input_grad[2]:
            return gx, gw, gy.sum(axis=0)
        return (gx, gw) + (None,) * (len(ctx.needs_input_grad) - 2)


@register
class L2NormalizeOp(Op):
    """Fused ``x / sqrt(sum(x*x, axis) + eps)``.

    Reference composition: ``mul`` + ``sum`` + ``add`` + ``sqrt`` + ``div``
    (5 tape nodes).  Backward uses the closed form
    ``dx = (g - out * sum(g * out, axis)) / norm``, exact including eps
    because ``out * norm == x`` identically.
    """

    name = "l2normalize"

    @staticmethod
    def forward(ctx: Context, x, *, axis: int = -1, eps: float = 1e-12, out=None):
        norm = _norm(x, axis, eps)
        out = np.true_divide(x, norm, out=out)
        ctx.save(out, norm)
        ctx.axis = axis
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        out, norm = ctx.saved
        inner = (grad * out).sum(axis=ctx.axis, keepdims=True)
        return ((grad - out * inner) / norm,)


@register
class CosineRowsOp(Op):
    """Fused row-wise cosine similarity ``sum(l2n(a) * l2n(b), axis)``.

    Reference composition: two ``l2_normalize`` chains + ``mul`` + ``sum``
    (12 tape nodes).  Shares the normalized activations between the two
    input gradients:

    ``ga = g * (b_hat - c * a_hat) / ||a||``,
    ``gb = g * (a_hat - c * b_hat) / ||b||``.
    """

    name = "cosine_rows"

    @staticmethod
    def forward(ctx: Context, a, b, *, axis: int = -1, eps: float = 1e-12,
                out=None):
        na = _norm(a, axis, eps)
        nb = _norm(b, axis, eps)
        ah = a / na
        bh = b / nb
        cos = _dot(ah, bh, axis, out=out)
        ctx.save(ah, bh, na, nb)
        ctx.cos_kept = np.expand_dims(cos, axis)
        ctx.axis = axis
        return cos

    @staticmethod
    def backward(ctx: Context, grad):
        ah, bh, na, nb = ctx.saved
        c = ctx.cos_kept
        g = np.expand_dims(grad, ctx.axis)
        ga = g * (bh - c * ah) / na if ctx.needs_input_grad[0] else None
        gb = g * (ah - c * bh) / nb if ctx.needs_input_grad[1] else None
        return ga, gb


@register
class NormalizedMseOp(Op):
    """Fused BYOL regression loss ``sum((l2n(p) - l2n(t))**2, axis)``.

    Reference composition: two ``l2_normalize`` chains + ``sub`` + ``mul``
    + ``sum``.  With ``d = p_hat - t_hat``:

    ``gp = 2 * (g*d - p_hat * sum(g*d*p_hat, axis)) / ||p||`` and the
    symmetric expression for ``gt``.
    """

    name = "normalized_mse"

    @staticmethod
    def forward(ctx: Context, p, t, *, axis: int = -1, eps: float = 1e-12,
                out=None):
        np_norm = _norm(p, axis, eps)
        nt_norm = _norm(t, axis, eps)
        ph = p / np_norm
        th = t / nt_norm
        diff = ph - th
        result = _dot(diff, diff, axis, out=out)
        ctx.save(ph, th, diff, np_norm, nt_norm)
        ctx.axis = axis
        return result

    @staticmethod
    def backward(ctx: Context, grad):
        ph, th, diff, np_norm, nt_norm = ctx.saved
        axis = ctx.axis
        g = np.expand_dims(grad, axis)
        gd = 2.0 * g * diff
        gp = gt = None
        if ctx.needs_input_grad[0]:
            gp = (gd - ph * (gd * ph).sum(axis=axis, keepdims=True)) / np_norm
        if ctx.needs_input_grad[1]:
            gt = (-gd + th * (gd * th).sum(axis=axis, keepdims=True)) / nt_norm
        return gp, gt


@register
class BatchNormOp(Op):
    """Fused train-mode batch normalization ``(x - mean) / sqrt(var + eps)``.

    Reference composition: ``mean``/``var``/``sqrt``/``div`` — roughly 15
    tape nodes per BatchNorm layer.  ``ctx.mean``/``ctx.var`` expose the
    batch statistics (keepdims) so the layer can update running stats
    without recomputing the reductions.  Backward is the standard analytic
    form with full gradient flow through mean and variance:

    ``dx = inv/m * (m*g - sum(g) - xhat * sum(g * xhat))``.
    """

    name = "batch_norm"

    @staticmethod
    def forward(ctx: Context, x, *, axes, eps: float, out=None):
        axes = tuple(axes)
        mean = x.mean(axis=axes, keepdims=True)
        centered = np.subtract(x, mean, out=out)
        sq = memplan.acquire(centered.shape, centered.dtype)
        np.multiply(centered, centered, out=sq)
        var = sq.mean(axis=axes, keepdims=True)
        memplan.release(sq)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = np.multiply(centered, inv, out=centered)  # overwrites centered
        ctx.save(xhat, inv)
        ctx.axes = axes
        ctx.m = int(np.prod([x.shape[a] for a in axes]))
        ctx.mean = mean
        ctx.var = var
        return xhat

    @staticmethod
    def backward(ctx: Context, grad):
        xhat, inv = ctx.saved
        axes, m = ctx.axes, ctx.m
        sum_g = grad.sum(axis=axes, keepdims=True)
        sum_gx = (grad * xhat).sum(axis=axes, keepdims=True)
        return ((inv / m) * (m * grad - sum_g - xhat * sum_gx),)
