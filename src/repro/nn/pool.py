"""Spatial pooling layers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor.engine import Context, Op, apply, register
from repro.tensor.tensor import Tensor


def _pool_views(x: np.ndarray, kernel: int) -> list[np.ndarray]:
    """The k² strided views ``x[:, :, i::k, j::k]``, in row-major (i, j) order.

    View ``(i, j)`` holds every window's element at offset ``(i, j)``, so
    an elementwise op over the views is the same op over each window
    (``kernel`` divides H and W, as :class:`MaxPool2d` checks).
    """
    return [x[:, :, i::kernel, j::kernel]
            for i in range(kernel) for j in range(kernel)]


@register
class MaxPool2dOp(Op):
    """Non-overlapping max pooling (kernel == stride).

    Forward is a running ``np.maximum`` over the k² window-offset views:
    max is exact, and taking the later of two equal operands in row-major
    offset order is what the ``max(axis=(3, 5))`` window reduction does,
    so the output bytes (signed zeros and NaN included) are the reduction's.
    The tie mask is backward-only: forward keeps ``x`` and the output when
    a gradient is due and nothing otherwise.
    """

    name = "maxpool2d"

    @staticmethod
    def forward(ctx: Context, x, *, kernel: int, out=None):
        first, *rest = _pool_views(x, kernel)
        # The first fold step makes the output (kernel 1 folds ``first``
        # with itself, which returns its bytes unchanged).
        out = np.maximum(first, rest[0] if rest else first, out=out, order="C")
        for view in rest[1:]:
            np.maximum(out, view, out=out)
        if any(ctx.needs_input_grad):
            ctx.save(x, out)
            ctx.kernel = kernel
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        x, out = ctx.saved
        # Ties split the gradient equally, as in Tensor.max: each tied
        # element gets grad · fl(1/count), the same float ops as dividing
        # the 0/1 mask by its window sum and then multiplying by grad.  An
        # all-NaN window has no equal element, so 0 · (1/0) gives NaN there.
        eqs = [np.equal(view, out) for view in _pool_views(x, ctx.kernel)]
        count = np.zeros(out.shape, dtype=x.dtype)
        for eq in eqs:
            count += eq
        gx = np.empty(x.shape, dtype=np.result_type(grad, x))
        share = np.empty(out.shape, dtype=x.dtype)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.divide(1, count, out=count)
            for eq, dst in zip(eqs, _pool_views(gx, ctx.kernel)):
                np.multiply(eq, inv, out=share)
                np.multiply(grad, share, out=dst)
        return (gx,)


@register
class AvgPool2dOp(Op):
    """Non-overlapping average pooling."""

    name = "avgpool2d"

    @staticmethod
    def forward(ctx: Context, x, *, kernel: int, out=None):
        n, c, h, w = x.shape
        oh, ow = h // kernel, w // kernel
        ctx.geometry = (n, c, oh, kernel, ow)
        ctx.shape = (n, c, h, w)
        windows = x.reshape(n, c, oh, kernel, ow, kernel)
        return windows.mean(axis=(3, 5), out=out)

    @staticmethod
    def backward(ctx: Context, grad):
        n, c, oh, kernel, ow = ctx.geometry
        scale = 1.0 / (kernel * kernel)
        g_exp = np.broadcast_to(grad[:, :, :, None, :, None] * scale,
                                (n, c, oh, kernel, ow, kernel))
        return (g_exp.reshape(ctx.shape),)


class MaxPool2d(Module):
    """Non-overlapping max pooling (kernel == stride), the common CNN case."""

    def __init__(self, kernel_size: int):
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        k = self.kernel_size
        n, c, h, w = x.shape
        if h % k or w % k:
            raise ValueError(f"MaxPool2d({k}) needs H, W divisible by {k}, got {(h, w)}")
        return apply("maxpool2d", x, kernel=k)


class AvgPool2d(Module):
    """Non-overlapping average pooling."""

    def __init__(self, kernel_size: int):
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        k = self.kernel_size
        n, c, h, w = x.shape
        if h % k or w % k:
            raise ValueError(f"AvgPool2d({k}) needs H, W divisible by {k}, got {(h, w)}")
        return apply("avgpool2d", x, kernel=k)


class GlobalAvgPool2d(Module):
    """Average over all spatial positions: (N, C, H, W) -> (N, C)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=(2, 3))
