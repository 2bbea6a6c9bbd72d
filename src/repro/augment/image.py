"""Image augmentations, vectorized over (N, C, H, W) batches in [0, 1].

These are numpy re-implementations of the torchvision transforms SimSiam
uses; each applies independently per sample in the batch.
"""

from __future__ import annotations

import numpy as np

from repro.augment.base import Augmentation, Compose
from repro.utils.filters import gaussian_blur_hw


class RandomCrop(Augmentation):
    """Pad-and-crop: reflect-pad by ``padding`` then crop back at a random offset."""

    def __init__(self, padding: int = 1):
        if padding < 0:
            raise ValueError("padding must be >= 0")
        self.padding = padding

    def __call__(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.padding == 0:
            return x
        p = self.padding
        n, _c, h, w = x.shape
        padded = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), mode="reflect")
        out = np.empty_like(x)
        offsets = rng.integers(0, 2 * p + 1, size=(n, 2))
        for i in range(n):
            dy, dx = offsets[i]
            out[i] = padded[i, :, dy:dy + h, dx:dx + w]
        return out


class RandomHorizontalFlip(Augmentation):
    def __init__(self, p: float = 0.5):
        self.p = p

    def __call__(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        flip = rng.uniform(size=len(x)) < self.p
        out = x.copy()
        out[flip] = out[flip, :, :, ::-1]
        return out


class ColorJitter(Augmentation):
    """Per-sample brightness and contrast jitter (the color part of SimSiam's jitter)."""

    def __init__(self, brightness: float = 0.2, contrast: float = 0.2, p: float = 0.8):
        self.brightness = brightness
        self.contrast = contrast
        self.p = p

    def __call__(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n = len(x)
        apply = rng.uniform(size=n) < self.p
        bright = rng.uniform(-self.brightness, self.brightness, size=(n, 1, 1, 1))
        contrast = rng.uniform(1 - self.contrast, 1 + self.contrast, size=(n, 1, 1, 1))
        mean = x.mean(axis=(2, 3), keepdims=True)
        jittered = (x - mean) * contrast + mean + bright
        out = np.where(apply[:, None, None, None], jittered, x)
        return np.clip(out, 0.0, 1.0).astype(x.dtype)


class RandomGrayscale(Augmentation):
    def __init__(self, p: float = 0.2):
        self.p = p

    def __call__(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        apply = rng.uniform(size=len(x)) < self.p
        gray = x.mean(axis=1, keepdims=True)
        gray = np.broadcast_to(gray, x.shape)
        return np.where(apply[:, None, None, None], gray, x).astype(x.dtype)


class GaussianBlur(Augmentation):
    """Per-sample Gaussian blur over H and W with probability ``p``.

    Each selected sample gets its own sigma from ``U(sigma)``; the bytes
    match ``scipy.ndimage.gaussian_filter(x[i], sigma=(0, s, s))``.
    """

    def __init__(self, sigma: tuple[float, float] = (0.1, 1.0), p: float = 0.5):
        self.sigma = sigma
        self.p = p

    def __call__(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        apply = rng.uniform(size=len(x)) < self.p
        sigmas = rng.uniform(self.sigma[0], self.sigma[1], size=len(x))
        # A zero sigma leaves its row as it is.
        return gaussian_blur_hw(x, np.where(apply, sigmas, 0.0))


def simsiam_image_pipeline(padding: int = 1) -> Compose:
    """The paper's image op set: crop, flip, color jitter, grayscale, blur."""
    return Compose([
        RandomCrop(padding=padding),
        RandomHorizontalFlip(),
        ColorJitter(),
        RandomGrayscale(),
        GaussianBlur(),
    ])
