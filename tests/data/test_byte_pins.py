"""Byte pins for the synthetic datasets and the domain shift.

Every experiment number depends on these bytes, so a change to how the
data is synthesised (RNG order, blur, float64 combine, casts) must fail
here rather than move results silently.
"""

import hashlib

import pytest

from repro.data import IMAGE_PRESETS, load_image_benchmark
from repro.data.synthetic import apply_domain_shift

DATASET_DIGESTS = {
    "cifar10-like": "daf4433a7853deecf081abd92ba3ee0b8528030f4db20e5a6e4942312a6786f9",
    "cifar100-like": "f154fea185e11a8d89dc7121ca37856eb671c84d075aaa20c7d4376fcd35681a",
    "domainnet-like": "1b5dd8fd158b1de9bb3f887a73ebc373b97e526bd081f4b4288b9cee19975674",
    "tiny-imagenet-like": "5ca563a9d1506f5c4d57b9f173c4211b79da55db797030c29a96bd181f43bd23",
}

DOMAIN_SHIFT_DIGEST = "3c04e716874107b71b545e7516ce0e6836067381f1b2f94ba8322305eab5e865"


def sequence_digest(sequence) -> str:
    digest = hashlib.sha256()
    for task in sequence.tasks:
        for part in (task.train, task.test):
            digest.update(part.x.tobytes())
            digest.update(part.y.tobytes())
    return digest.hexdigest()


def test_every_image_preset_is_pinned():
    assert sorted(DATASET_DIGESTS) == sorted(IMAGE_PRESETS)


@pytest.mark.parametrize("name", sorted(DATASET_DIGESTS))
def test_ci_dataset_bytes(name):
    assert sequence_digest(load_image_benchmark(name, "ci")) == DATASET_DIGESTS[name]


def test_domain_shift_bytes():
    x = load_image_benchmark("cifar10-like", "ci").tasks[0].test.x
    shifted = apply_domain_shift(x, domain=2, strength=0.5, seed=3)
    assert hashlib.sha256(shifted.tobytes()).hexdigest() == DOMAIN_SHIFT_DIGEST
