"""Separable Gaussian blur over the last two axes, in numpy only.

:func:`gaussian_blur_hw` gives, row for row, the bytes of
``scipy.ndimage.gaussian_filter(x[i], sigma=(0, ..., s_i, s_i))`` with
scipy's defaults (``mode='reflect'``, ``truncate=4.0``), without
importing scipy: that import costs every process tens of MB of resident
memory and a large share of its start-up. To match bit for bit, it
copies scipy's arithmetic:

- the radius is ``int(4.0 * s + 0.5)`` and the kernel is
  ``exp(-0.5 / s**2 * t**2)`` over ``t = -radius..radius``, divided by
  its sum, in float64;
- lines are extended by mirroring with the edge sample repeated
  (``d c b a | a b c d | d c b a``, numpy's ``'symmetric'``), and the
  mirroring repeats with period ``2 n`` when the radius exceeds the
  line length ``n``;
- each output sample accumulates in float64: the centre tap first, then
  ``(left + right) * w`` for each symmetric pair from the outermost pair
  inward;
- the H pass is cast to the input dtype before the W pass reads it, and
  the W pass is cast again;
- a row with ``s <= 1e-15`` is left as it is, as scipy skips that axis.

Rows are vectorised in groups that share a radius. Radius 0 is the
kernel ``[1.0]``, so those rows are left as they are too.
"""

from __future__ import annotations

import functools

import numpy as np

_TRUNCATE = 4.0
_MIN_SIGMA = 1e-15


@functools.lru_cache(maxsize=64)
def _reflect_index(n: int, radius: int) -> np.ndarray:
    """Source indices of a length-``n`` line extended by ``radius`` per side."""
    index = np.arange(-radius, n + radius) % (2 * n)
    index = np.where(index < n, index, 2 * n - 1 - index)
    index.flags.writeable = False
    return index


def _kernels(sigmas: np.ndarray, radius: int) -> np.ndarray:
    """scipy's ``_gaussian_kernel1d`` for each sigma, one row each."""
    taps = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigmas * sigmas)[:, None] * taps ** 2)
    return phi / phi.sum(axis=1, keepdims=True)


def _correlate(x: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """One float64 pass of the symmetric kernels along ``axis`` (-1 or -2)."""
    radius = weights.shape[1] // 2
    n = x.shape[axis]
    lines = np.take(x, _reflect_index(n, radius), axis=axis).astype(np.float64, copy=False)
    tail = (slice(None),) if axis == -2 else ()

    def window(start: int) -> np.ndarray:
        return lines[(..., slice(start, start + n)) + tail]

    w = weights.reshape(weights.shape[:1] + (1,) * (x.ndim - 1) + weights.shape[1:])
    acc = window(radius) * w[..., radius]
    pair = np.empty_like(acc)
    for j in range(radius, 0, -1):
        np.add(window(radius - j), window(radius + j), out=pair)
        pair *= w[..., radius - j]
        acc += pair
    return acc


def gaussian_blur_hw(x: np.ndarray, sigmas) -> np.ndarray:
    """Blur each row ``x[i]`` over its last two axes with ``sigmas[i]``.

    ``x`` is a floating array of shape ``(N, ..., H, W)``; ``sigmas``
    broadcasts to ``(N,)``. Returns a new array of ``x``'s shape and dtype.
    """
    out = x.copy()
    sigmas = np.broadcast_to(np.asarray(sigmas, dtype=np.float64), (len(x),))
    radii = np.where(sigmas > _MIN_SIGMA, (_TRUNCATE * sigmas + 0.5).astype(np.int64), 0)
    for radius in np.unique(radii[radii > 0]):
        rows = np.flatnonzero(radii == radius)
        weights = _kernels(sigmas[rows], int(radius))
        h_pass = _correlate(x[rows], weights, axis=-2).astype(x.dtype, copy=False)
        out[rows] = _correlate(h_pass, weights, axis=-1)
    return out
