"""Bitwise parity of the conv and max-pool kernels against frozen references.

The reference functions below are verbatim copies of the NCHW kernels the
channels-last im2col/col2im and the strided-max pool replaced (only their
names changed).  The rewritten kernels are only allowed to move data
differently: every forward output and every gradient must be
``tobytes()``-equal to the reference, at every shape a CI-scale run uses
and at the edge cases where float behaviour is easiest to disturb
(signed-zero and duplicate-maximum ties, NaN windows, float64).

The second half pins what a no-grad forward leaves behind: no ndarray on
its context and no scratch buffer withheld from the memplan cache.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn.conv import Conv2dOp, _col2im, _im2col, _out_hw
from repro.nn.pool import MaxPool2dOp
from repro.tensor import Tensor, memplan, no_grad
from repro.tensor.engine import Context, apply_ctx


# ----------------------------------------------------------------------
# Frozen references (verbatim)
# ----------------------------------------------------------------------
def ref_maxpool_forward(ctx: Context, x, *, kernel: int, out=None):
    n, c, h, w = x.shape
    oh, ow = h // kernel, w // kernel
    windows = x.reshape(n, c, oh, kernel, ow, kernel)
    if out is None:
        out = windows.max(axis=(3, 5))
        # argmax mask for backward (ties split the gradient as in Tensor.max)
        expanded = out[:, :, :, None, :, None]
        mask = (windows == expanded).astype(x.dtype)
        mask /= mask.sum(axis=(3, 5), keepdims=True)
    else:
        windows.max(axis=(3, 5), out=out)
        expanded = out[:, :, :, None, :, None]
        eq = memplan.acquire(windows.shape, np.bool_)
        mask = memplan.acquire(windows.shape, x.dtype)
        msum = memplan.acquire((n, c, oh, 1, ow, 1), x.dtype)
        np.equal(windows, expanded, out=eq)
        np.copyto(mask, eq)
        mask.sum(axis=(3, 5), keepdims=True, out=msum)
        np.true_divide(mask, msum, out=mask)
        memplan.release(eq)
        memplan.release(msum)
    ctx.mask = mask
    ctx.shape = (n, c, h, w)
    return out


def ref_maxpool_backward(ctx: Context, grad):
    g_exp = grad[:, :, :, None, :, None] * ctx.mask
    return (g_exp.reshape(ctx.shape),)


def ref_im2col(x: np.ndarray, kernel: int, stride: int,
               padding: int) -> tuple[np.ndarray, int, int]:
    n, c, h, w = x.shape
    out_h, out_w = _out_hw(h, w, kernel, stride, padding)
    padded = None
    if padding:
        # Zero-fill + interior copy: value-identical to np.pad's constant
        # mode, but into reusable (plannable) storage.
        padded = memplan.acquire(
            (n, c, h + 2 * padding, w + 2 * padding), x.dtype)
        padded.fill(0)
        padded[:, :, padding:-padding, padding:-padding] = x
        x = padded
    strides = x.strides
    shape = (n, c, out_h, out_w, kernel, kernel)
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=shape,
        strides=(strides[0], strides[1], strides[2] * stride, strides[3] * stride, strides[2], strides[3]),
        writeable=False,
    )
    col_shape = (n, out_h, out_w, c, kernel, kernel)
    cols = memplan.acquire(col_shape, x.dtype)
    # (N, C, out_h, out_w, k, k) -> (N, out_h, out_w, C, k, k), materialized
    # into the scratch buffer.
    np.copyto(cols, view.transpose(0, 2, 3, 1, 4, 5))
    if padded is not None:
        memplan.release(padded)
    return cols.reshape(n, out_h, out_w, c * kernel * kernel), out_h, out_w


def ref_col2im(cols: np.ndarray, x_shape: tuple[int, int, int, int], kernel: int,
               stride: int, padding: int) -> np.ndarray:
    n, c, h, w = x_shape
    out_h, out_w = _out_hw(h, w, kernel, stride, padding)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols = cols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(0, 3, 1, 2, 4, 5)
    # k*k iterations over kernel offsets, not over array elements: each
    # slice assignment below is a full vectorized scatter.
    for ki in range(kernel):
        i_max = ki + stride * out_h
        for kj in range(kernel):
            j_max = kj + stride * out_w
            padded[:, :, ki:i_max:stride, kj:j_max:stride] += cols[:, :, :, :, ki, kj]
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
#: Every batch size a CI-scale run feeds the backbone (train batches,
#: replay batches, tail batches, eval chunks).
CI_BATCHES = (4, 8, 12, 16, 24, 32, 80, 120)


def _post_relu(rng, shape, dtype=np.float32):
    """BN-then-ReLU-like activations: about half exact zeros (window ties)."""
    return np.maximum(rng.standard_normal(shape), 0.0).astype(dtype)


def _quantized(rng, shape, dtype=np.float32):
    """Few distinct values, signed zeros included: duplicate window maxima."""
    levels = np.array([-0.0, 0.0, 0.5, 1.0, -1.0], dtype=dtype)
    return rng.choice(levels, size=shape)


def _assert_same_bytes(expected, actual, what):
    expected, actual = np.asarray(expected), np.asarray(actual)
    assert expected.shape == actual.shape, f"{what}: shape"
    assert expected.dtype == actual.dtype, f"{what}: dtype"
    assert expected.tobytes() == actual.tobytes(), f"{what}: bytes differ"


# ----------------------------------------------------------------------
# Max-pool
# ----------------------------------------------------------------------
def _check_pool(x, kernel, grad_seed=1, grad_nan=False):
    ctx_ref = Context()
    ctx_ref.needs_input_grad = (True,)
    with np.errstate(invalid="ignore"):
        expected = ref_maxpool_forward(ctx_ref, x, kernel=kernel)
    ctx_new = Context()
    ctx_new.needs_input_grad = (True,)
    actual = MaxPool2dOp.forward(ctx_new, x, kernel=kernel)
    _assert_same_bytes(expected, actual, "maxpool forward")

    grad = np.random.default_rng(grad_seed).standard_normal(
        expected.shape).astype(x.dtype)
    if grad_nan:
        # NaN grad meeting a NaN tie share: the product's NaN payload
        # depends on operand order, which must stay grad-first.
        grad[0, 0, 0, 0] = np.nan
        grad[-1, -1, -1, -1] = np.nan
    (gx_ref,) = ref_maxpool_backward(ctx_ref, grad)
    (gx_new,) = MaxPool2dOp.backward(ctx_new, grad)
    _assert_same_bytes(gx_ref, gx_new, "maxpool input grad")

    # The planned replay path (forward into a caller slab) is the same bytes.
    ctx_out = Context()
    ctx_out.needs_input_grad = (True,)
    slab = np.full(expected.shape, np.nan, dtype=x.dtype)
    assert MaxPool2dOp.forward(ctx_out, x, kernel=kernel, out=slab) is slab
    _assert_same_bytes(expected, slab, "maxpool out= forward")
    _assert_same_bytes(gx_ref, MaxPool2dOp.backward(ctx_out, grad)[0],
                       "maxpool out= input grad")


class TestMaxPoolParity:
    @pytest.mark.parametrize("n", CI_BATCHES)
    @pytest.mark.parametrize("channels, size", [(16, 8), (32, 4)])
    def test_ci_shapes_post_relu(self, n, channels, size):
        rng = np.random.default_rng(n * 100 + channels)
        _check_pool(_post_relu(rng, (n, channels, size, size)), 2)

    @pytest.mark.parametrize("n", CI_BATCHES)
    @pytest.mark.parametrize("channels, size", [(16, 8), (32, 4)])
    def test_ci_shapes_duplicate_maxima_and_signed_zeros(self, n, channels, size):
        rng = np.random.default_rng(n * 100 + channels + 1)
        _check_pool(_quantized(rng, (n, channels, size, size)), 2)

    def test_kernel_three_on_six_by_six(self):
        rng = np.random.default_rng(3)
        _check_pool(_post_relu(rng, (8, 4, 6, 6)), 3)
        _check_pool(_quantized(rng, (8, 4, 6, 6)), 3)

    @pytest.mark.parametrize("kernel", [2, 3])
    def test_all_nan_and_partly_nan_windows(self, kernel):
        rng = np.random.default_rng(4)
        x = _post_relu(rng, (4, 3, 6, 6))
        x[0, 0, :kernel, :kernel] = np.nan          # all-NaN window
        x[1, 2, kernel, kernel] = np.nan            # one NaN in a window
        _check_pool(x, kernel)
        _check_pool(x, kernel, grad_nan=True)
        ctx = Context()
        ctx.needs_input_grad = (True,)
        out = MaxPool2dOp.forward(ctx, x, kernel=kernel)
        (gx,) = MaxPool2dOp.backward(ctx, np.ones_like(out))
        assert np.isnan(out[0, 0, 0, 0])
        assert np.isnan(gx[0, 0, :kernel, :kernel]).all()

    @pytest.mark.parametrize("kernel, size", [(2, 8), (3, 6)])
    def test_float64(self, kernel, size):
        rng = np.random.default_rng(5)
        _check_pool(_post_relu(rng, (6, 3, size, size), np.float64), kernel)
        _check_pool(_quantized(rng, (6, 3, size, size), np.float64), kernel)


# ----------------------------------------------------------------------
# im2col / col2im and the conv op
# ----------------------------------------------------------------------
def _conv_weights(rng, c_in, c_out, kernel, dtype):
    fan_in = c_in * kernel * kernel
    return ((rng.standard_normal((fan_in, c_out)) / np.sqrt(fan_in)).astype(dtype),
            rng.standard_normal(c_out).astype(dtype))


def _run_conv(x, w, b, geometry, grad):
    ctx = Context()
    ctx.needs_input_grad = (True, True, True)
    out = Conv2dOp.forward(ctx, x, w, b, **geometry)
    return (out,) + tuple(Conv2dOp.backward(ctx, grad))


def _check_conv(x, c_out, kernel, stride, padding, seed=0):
    rng = np.random.default_rng(seed)
    geometry = dict(kernel=kernel, stride=stride, padding=padding)
    n, c_in = x.shape[:2]
    w, b = _conv_weights(rng, c_in, c_out, kernel, x.dtype)

    cols_ref, oh, ow = ref_im2col(x, kernel, stride, padding)
    cols_new, oh_new, ow_new = _im2col(x, kernel, stride, padding)
    assert (oh, ow) == (oh_new, ow_new)
    _assert_same_bytes(cols_ref, cols_new, "im2col")

    patch_grads = rng.standard_normal(cols_ref.shape).astype(x.dtype)
    _assert_same_bytes(
        np.ascontiguousarray(ref_col2im(patch_grads, x.shape, kernel, stride, padding)),
        _col2im(patch_grads, x.shape, kernel, stride, padding), "col2im")

    # The whole op: the reference result is the same GEMMs around the
    # reference unfold/fold, with the same operands in the same order.
    grad = rng.standard_normal((n, c_out, oh, ow)).astype(x.dtype)
    flat = cols_ref.reshape(-1, cols_ref.shape[-1])
    out_flat = flat @ w
    out_flat += b
    ref_out = np.ascontiguousarray(
        out_flat.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2))
    g_flat = grad.transpose(0, 2, 3, 1).reshape(-1, c_out)
    ref_gx = ref_col2im((g_flat @ w.T).reshape(n, oh, ow, -1), x.shape,
                        kernel, stride, padding)
    ref_gw = flat.T @ g_flat
    out, gx, gw, gb = _run_conv(x, w, b, geometry, grad)
    _assert_same_bytes(ref_out, out, "conv forward")
    _assert_same_bytes(np.ascontiguousarray(ref_gx), gx, "conv input grad")
    _assert_same_bytes(ref_gw, gw, "conv weight grad")
    _assert_same_bytes(g_flat.sum(axis=0), gb, "conv bias grad")


class TestConvParity:
    @pytest.mark.parametrize("n", CI_BATCHES)
    @pytest.mark.parametrize("c_in, size, c_out", [(3, 8, 16), (16, 4, 32), (32, 2, 64)])
    def test_ci_shapes(self, n, c_in, size, c_out):
        rng = np.random.default_rng(n * 10 + c_in)
        _check_conv(_post_relu(rng, (n, c_in, size, size)), c_out, 3, 1, 1, seed=n)

    @pytest.mark.parametrize("kernel, stride, padding", [
        (1, 1, 0),   # pointwise
        (3, 1, 1),   # same
        (3, 2, 1),   # downsample
        (2, 2, 0),   # patchify
        (5, 1, 2),   # large same
        (3, 2, 0),   # stride 2, no padding, uneven cover
    ])
    def test_kernel_stride_padding_variants(self, kernel, stride, padding):
        rng = np.random.default_rng(kernel * 10 + stride)
        _check_conv(rng.standard_normal((3, 2, 6, 6)).astype(np.float32),
                    4, kernel, stride, padding)

    @pytest.mark.parametrize("shape, kernel", [
        ((3, 1, 6, 6), 1),   # single channel: the NCHW fold view is contiguous
        ((3, 1, 6, 6), 3),
        ((3, 4, 1, 1), 1),   # 1x1 spatial: likewise
    ])
    def test_contiguous_fold_view(self, shape, kernel):
        rng = np.random.default_rng(12)
        _check_conv(rng.standard_normal(shape).astype(np.float32), 4, kernel, 1, 0)

    def test_float64(self):
        rng = np.random.default_rng(6)
        _check_conv(rng.standard_normal((4, 3, 5, 5)), 4, 3, 1, 1)
        _check_conv(rng.standard_normal((4, 3, 5, 5)), 4, 3, 2, 0)

    def test_signed_zero_inputs(self):
        rng = np.random.default_rng(7)
        _check_conv(_quantized(rng, (8, 16, 4, 4)), 32, 3, 1, 1)


class TestSharedInputGradient:
    """One leaf feeding two convs: the first input gradient must survive.

    The first backward's input gradient waits in the engine's accumulator
    while the second conv's col2im runs; if col2im handed back a scratch
    buffer, the second fold would overwrite the first gradient.
    """

    @staticmethod
    def _input_grad(x_data, convs, grads):
        x = Tensor(x_data, requires_grad=True)
        loss = None
        for conv, g in zip(convs, grads):
            term = (conv(x) * Tensor(g)).sum()
            loss = term if loss is None else loss + term
        loss.backward()
        return x.grad

    @pytest.mark.parametrize("shape, kernel", [
        ((4, 1, 6, 6), 1),
        ((4, 1, 6, 6), 3),
        ((4, 3, 1, 1), 1),
    ])
    def test_two_convs_sum_their_gradients(self, shape, kernel):
        memplan.clear_scratch_cache()
        rng = np.random.default_rng(13)
        convs = [nn.Conv2d(shape[1], 5, kernel, rng=rng) for _ in range(2)]
        x_data = rng.standard_normal(shape).astype(np.float32)
        oh, ow = _out_hw(shape[2], shape[3], kernel, 1, 0)
        grads = [rng.standard_normal((shape[0], 5, oh, ow)).astype(np.float32)
                 for _ in convs]
        single = [self._input_grad(x_data, [conv], [g])
                  for conv, g in zip(convs, grads)]
        both = self._input_grad(x_data, convs, grads)
        np.testing.assert_array_equal(both, single[0] + single[1])


# ----------------------------------------------------------------------
# No-grad forwards retain nothing
# ----------------------------------------------------------------------
@pytest.fixture
def scratch_ledger(monkeypatch):
    """Record every memplan acquire/release made while the test runs."""
    memplan.clear_scratch_cache()
    ledger = {"acquired": [], "released": []}
    acquire, release = memplan.acquire, memplan.release

    def tracking_acquire(shape, dtype):
        buf = acquire(shape, dtype)
        ledger["acquired"].append(buf)
        return buf

    def tracking_release(buf):
        ledger["released"].append(buf)
        release(buf)

    monkeypatch.setattr(memplan, "acquire", tracking_acquire)
    monkeypatch.setattr(memplan, "release", tracking_release)
    yield ledger
    memplan.clear_scratch_cache()


def _ctx_arrays(ctx):
    for name, value in vars(ctx).items():
        values = value if isinstance(value, (tuple, list)) else (value,)
        if any(isinstance(v, np.ndarray) for v in values):
            yield name


def _assert_all_returned(ledger):
    released = ledger["released"]
    for buf in ledger["acquired"]:
        assert any(np.shares_memory(buf, r) and r.size == buf.size
                   for r in released), \
            f"scratch {buf.shape}/{buf.dtype} was never returned to the cache"


def _no_grad_forward(op_cls, name, inputs, **params):
    """The op's context after a no-grad forward, direct and dispatched.

    The direct call sees the kernel alone (the engine also clears
    ``ctx.saved`` for no-grad outputs); the dispatched one is what eval
    and extraction passes run.
    """
    direct = Context()
    direct.needs_input_grad = (False,) * len(inputs)
    op_cls.forward(direct, *(t.data for t in inputs), **params)
    with no_grad():
        _out, dispatched = apply_ctx(name, *inputs, **params)
    return direct, dispatched


class TestNoGradRetainsNothing:
    @pytest.mark.parametrize("padding", [0, 1])
    def test_conv2d(self, scratch_ledger, padding):
        rng = np.random.default_rng(8)
        conv = nn.Conv2d(3, 8, 3, padding=padding, rng=rng)
        x = Tensor(rng.standard_normal((4, 3, 8, 8)).astype(np.float32))
        for ctx in _no_grad_forward(Conv2dOp, "conv2d", (x, conv.weight, conv.bias),
                                    kernel=3, stride=1, padding=padding):
            assert list(_ctx_arrays(ctx)) == []
        assert scratch_ledger["acquired"], "conv acquired no scratch"
        _assert_all_returned(scratch_ledger)

    def test_maxpool2d(self, scratch_ledger):
        rng = np.random.default_rng(9)
        x = Tensor(_post_relu(rng, (4, 16, 8, 8)), requires_grad=True)
        for ctx in _no_grad_forward(MaxPool2dOp, "maxpool2d", (x,), kernel=2):
            assert list(_ctx_arrays(ctx)) == []
        _assert_all_returned(scratch_ledger)

    def test_grad_forward_keeps_only_what_backward_reads(self):
        rng = np.random.default_rng(11)
        x = Tensor(_post_relu(rng, (4, 16, 8, 8)), requires_grad=True)
        out, ctx = apply_ctx("maxpool2d", x, kernel=2)
        assert sorted(_ctx_arrays(ctx)) == ["saved"]
        saved_x, saved_out = ctx.saved
        assert saved_x is x.data and saved_out is out.data
