"""The numpy Gaussian blur against scipy.ndimage, byte for byte.

scipy is a test-only dependency: the package never imports it, and these
tests skip where it is not installed.
"""

import numpy as np
import pytest

from repro.utils.filters import gaussian_blur_hw

ndimage = pytest.importorskip("scipy.ndimage")


def assert_matches_scipy(x, sigmas):
    got = gaussian_blur_hw(x, sigmas)
    assert got.shape == x.shape and got.dtype == x.dtype
    for i in range(len(x)):
        want = ndimage.gaussian_filter(x[i], sigma=(0, sigmas[i], sigmas[i]))
        assert got[i].tobytes() == want.tobytes(), (i, sigmas[i])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mixed_radii_in_one_batch(dtype):
    rng = np.random.default_rng(0)
    radii = set()
    for _ in range(10):
        x = rng.uniform(0, 1, size=(32, 3, 8, 8)).astype(dtype)
        sigmas = rng.uniform(0.1, 1.0, size=32)
        assert_matches_scipy(x, sigmas)
        radii.update(int(4.0 * s + 0.5) for s in sigmas)
    assert radii == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("side", [2, 3, 5, 8])
def test_radius_up_to_and_past_the_image_side(dtype, sigma, side):
    # Radii 6, 8 and 12: the reflection wraps around the line, more than
    # once on the smaller images.
    rng = np.random.default_rng(side)
    x = rng.uniform(0, 1, size=(4, 3, side, side)).astype(dtype)
    assert_matches_scipy(x, np.full(4, sigma))


def test_non_square_images():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, size=(6, 2, 3, 7)).astype(np.float32)
    assert_matches_scipy(x, rng.uniform(0.1, 2.0, size=6))


def test_tiny_sigma_leaves_rows_as_they_are():
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, size=(3, 3, 8, 8)).astype(np.float32)
    sigmas = np.array([0.0, 1e-15, 0.9])
    got = gaussian_blur_hw(x, sigmas)
    assert got[:2].tobytes() == x[:2].tobytes()
    assert_matches_scipy(x, sigmas)


def test_empty_selection():
    x = np.empty((0, 3, 8, 8), dtype=np.float32)
    got = gaussian_blur_hw(x, np.empty(0))
    assert got.shape == (0, 3, 8, 8) and got.dtype == np.float32

