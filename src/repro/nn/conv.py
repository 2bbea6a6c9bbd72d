"""2-D convolution via im2col.

The forward pass lowers convolution to a single matmul over unfolded
patches; the whole lowering is one registered autograd op (``conv2d``) so
the col2im scatter runs in vectorized numpy instead of through generic
indexing, and the bias add is fused into the same kernel.  Inputs and
outputs are NCHW, matching the torch convention the paper's models assume;
inside the kernel, im2col/col2im stage the image channels-last so their
copies and adds move contiguous runs of channels.

The unfolded patch matrix is the dominant allocation of a CNN step.  It,
the channels-last staged input and the GEMM result come from the
process-wide scratch cache of :mod:`repro.tensor.memplan`, in eager
dispatch and tape replay alike, with the reuse the old per-layer
``_ColBufferPool`` gave: acquire in forward, release once the weight
gradient has consumed the buffer (immediately under ``no_grad``);
acquire/release rather than a single cached slot because SSL methods run
two augmented forwards before one backward.  Only the NCHW output lives
in a planned replay's arena (``out=``); with the cache warm, a planned
conv makes no fresh allocation.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import memplan
from repro.tensor.engine import Context, Op, apply, register
from repro.tensor.tensor import Tensor
from repro.utils.rng import fallback_rng


def _out_hw(h: int, w: int, kernel: int, stride: int, padding: int) -> tuple[int, int]:
    return ((h + 2 * padding - kernel) // stride + 1,
            (w + 2 * padding - kernel) // stride + 1)


def _im2col(x: np.ndarray, kernel: int, stride: int,
            padding: int) -> tuple[np.ndarray, int, int]:
    """Unfold ``x`` (N, C, H, W) into (N, out_h, out_w, C*k*k) patches.

    ``x`` is first staged channels-last as (N, H+2p, W+2p, C) in one
    scratch copy (zero-filled only when padded), so each of the k² kernel
    offsets fills the patch matrix with one copy whose inner run is the C
    channels.  The patch matrix keeps its (N, out_h, out_w, C, k, k)
    layout, so every GEMM that reads it sees the same operand.

    The destination buffer comes from :func:`repro.tensor.memplan.acquire`
    and must be released by the caller once backward no longer needs it.
    """
    n, c, h, w = x.shape
    out_h, out_w = _out_hw(h, w, kernel, stride, padding)
    staged = memplan.acquire((n, h + 2 * padding, w + 2 * padding, c), x.dtype)
    if padding:
        staged.fill(0)
    staged[:, padding:padding + h, padding:padding + w] = x.transpose(0, 2, 3, 1)
    cols = memplan.acquire((n, out_h, out_w, c, kernel, kernel), x.dtype)
    for ki in range(kernel):
        rows = staged[:, ki:ki + stride * out_h:stride]
        for kj in range(kernel):
            cols[..., ki, kj] = rows[:, :, kj:kj + stride * out_w:stride]
    memplan.release(staged)
    return cols.reshape(n, out_h, out_w, c * kernel * kernel), out_h, out_w


def _col2im(cols: np.ndarray, x_shape: tuple[int, int, int, int], kernel: int,
            stride: int, padding: int) -> np.ndarray:
    """Scatter-add (N, out_h, out_w, C*k*k) patch gradients back to x.

    Accumulates into a channels-last zero buffer, one strided add per
    kernel offset in (ki, kj) order, so every input element receives its
    contributions in the same order and from the same zero start as an
    NCHW scatter would; one transpose copy into a fresh array then returns
    contiguous NCHW, and the scratch buffer goes back to the cache.
    """
    n, c, h, w = x_shape
    out_h, out_w = _out_hw(h, w, kernel, stride, padding)
    padded = memplan.acquire((n, h + 2 * padding, w + 2 * padding, c), cols.dtype)
    padded.fill(0)
    cols = cols.reshape(n, out_h, out_w, c, kernel, kernel)
    for ki in range(kernel):
        rows = padded[:, ki:ki + stride * out_h:stride]
        for kj in range(kernel):
            dst = rows[:, :, kj:kj + stride * out_w:stride]
            np.add(dst, cols[..., ki, kj], out=dst)
    # Always a fresh buffer: when the NCHW view is already contiguous
    # (C == 1 or 1x1 spatial, no padding) ascontiguousarray would return
    # ``padded`` itself, and releasing it would hand the gradient to the
    # next acquire.
    gx = np.empty(x_shape, dtype=cols.dtype)
    np.copyto(gx, padded[:, padding:padding + h, padding:padding + w]
              .transpose(0, 3, 1, 2))
    memplan.release(padded)
    return gx


@register
class Conv2dOp(Op):
    """im2col convolution with fused bias and cache-backed scratch.

    Inputs: ``x`` (N, C_in, H, W), ``weight`` (C_in*k*k, C_out) and an
    optional trailing ``bias`` (C_out,).  Params carry the geometry.
    """

    name = "conv2d"

    @staticmethod
    def forward(ctx: Context, x, w, *bias, kernel: int, stride: int,
                padding: int, out=None):
        n = x.shape[0]
        cols, out_h, out_w = _im2col(x, kernel, stride, padding)
        flat = cols.reshape(-1, cols.shape[-1])            # (N*oh*ow, Cin*k*k)
        out_flat = memplan.acquire((flat.shape[0], w.shape[1]),
                                   np.result_type(flat, w))  # (N*oh*ow, Cout)
        np.matmul(flat, w, out=out_flat)
        if bias:
            out_flat += bias[0]
        # The C-order element copy np.ascontiguousarray makes, into ``out``
        # when given.
        result = np.positive(out_flat.reshape(n, out_h, out_w, w.shape[1])
                             .transpose(0, 3, 1, 2), out=out, order="C")
        memplan.release(out_flat)
        if any(ctx.needs_input_grad):
            ctx.save(flat, w)
            ctx.geometry = (x.shape, kernel, stride, padding, out_h, out_w)
            ctx.cols = cols
        else:
            memplan.release(cols.reshape(n, out_h, out_w, -1, kernel, kernel))
        return result

    @staticmethod
    def backward(ctx: Context, grad):
        flat, w = ctx.saved
        x_shape, kernel, stride, padding, out_h, out_w = ctx.geometry
        n = x_shape[0]
        c_out = w.shape[1]
        g_flat = grad.transpose(0, 2, 3, 1).reshape(-1, c_out)
        gx = gw = None
        if ctx.needs_input_grad[0]:
            cols_grad = g_flat @ w.T
            gx = _col2im(cols_grad.reshape(n, out_h, out_w, -1), x_shape,
                         kernel, stride, padding)
        if ctx.needs_input_grad[1]:
            gw = flat.T @ g_flat
        # The col buffer is only needed for the weight gradient; backward
        # runs exactly once per node, so this is the release point.
        memplan.release(ctx.cols.reshape(n, out_h, out_w, -1, kernel, kernel))
        ctx.cols = None
        if len(ctx.needs_input_grad) > 2 and ctx.needs_input_grad[2]:
            return gx, gw, g_flat.sum(axis=0)
        return (gx, gw) + (None,) * (len(ctx.needs_input_grad) - 2)


class Conv2d(Module):
    """Convolution layer ``(N, C_in, H, W) -> (N, C_out, H', W')``."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or fallback_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        # Stored as (C_in*k*k, C_out) so forward is one matmul over patches.
        self.weight = Parameter(init.kaiming_uniform(rng, (fan_in, out_channels), fan_in))
        if bias:
            bound = 1.0 / np.sqrt(fan_in)
            self.bias = Parameter(rng.uniform(-bound, bound, size=(out_channels,)).astype(np.float32))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"Conv2d expects NCHW input, got shape {x.shape}")
        params = dict(kernel=self.kernel_size, stride=self.stride,
                      padding=self.padding)
        if self.bias is not None:
            return apply("conv2d", x, self.weight, self.bias, **params)
        return apply("conv2d", x, self.weight, **params)

    def __repr__(self) -> str:
        return (f"Conv2d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
                f"s={self.stride}, p={self.padding})")
