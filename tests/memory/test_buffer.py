"""Tests for the episodic memory buffer."""

import numpy as np
import pytest

from repro.memory import MemoryBuffer, MemoryRecord


def record(task_id=0, n=5, d=4, with_scales=True, with_targets=False):
    return MemoryRecord(
        task_id=task_id,
        samples=np.full((n, d), float(task_id)),
        noise_scales=np.full(n, 0.1) if with_scales else None,
        targets=np.zeros((n, 3)) if with_targets else None,
        labels=np.zeros(n, dtype=np.int64),
    )


class TestBuffer:
    def test_quota_is_budget_over_tasks(self):
        assert MemoryBuffer(640, 20).per_task_quota == 32  # CIFAR-100 paper setting
        assert MemoryBuffer(256, 5).per_task_quota == 51   # CIFAR-10 paper setting

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            MemoryBuffer(-1, 5)
        with pytest.raises(ValueError):
            MemoryBuffer(10, 0)

    def test_add_and_len(self):
        buffer = MemoryBuffer(50, 5)
        buffer.add(record(0))
        buffer.add(record(1))
        assert len(buffer) == 10
        assert not buffer.is_empty

    def test_rejects_over_quota_record(self):
        buffer = MemoryBuffer(10, 5)  # quota 2
        with pytest.raises(ValueError):
            buffer.add(record(0, n=5))

    def test_rejects_duplicate_task(self):
        buffer = MemoryBuffer(50, 5)
        buffer.add(record(0))
        with pytest.raises(ValueError):
            buffer.add(record(0))

    def test_all_samples_concatenates_in_task_order(self):
        buffer = MemoryBuffer(50, 5)
        buffer.add(record(0))
        buffer.add(record(1))
        samples = buffer.all_samples()
        assert samples.shape == (10, 4)
        np.testing.assert_array_equal(samples[:5], 0.0)
        np.testing.assert_array_equal(samples[5:], 1.0)

    def test_all_samples_empty_raises(self):
        with pytest.raises(ValueError):
            MemoryBuffer(50, 5).all_samples()

    def test_noise_scales_missing_raises(self):
        buffer = MemoryBuffer(50, 5)
        buffer.add(record(0, with_scales=False))
        with pytest.raises(ValueError):
            buffer.all_noise_scales()

    def test_targets_roundtrip(self):
        buffer = MemoryBuffer(50, 5)
        buffer.add(record(0, with_targets=True))
        assert buffer.all_targets().shape == (5, 3)

    def test_vector_noise_scales_concatenate(self):
        buffer = MemoryBuffer(50, 5)
        a = record(0)
        a.noise_scales = np.ones((5, 4))
        b = record(1)
        b.noise_scales = np.zeros((5, 4))
        buffer.add(a)
        buffer.add(b)
        assert buffer.all_noise_scales().shape == (10, 4)

    def test_mixed_noise_mode_records_raise_clearly(self):
        # one task stored with vector (m, d) scales, another with scalar
        # (m,): concatenation would either crash cryptically or silently
        # broadcast; the buffer must name the offending tasks instead
        buffer = MemoryBuffer(50, 5)
        a = record(0)
        a.noise_scales = np.ones((5, 4))
        b = record(1)
        b.noise_scales = np.ones(5)
        buffer.add(a)
        buffer.add(b)
        with pytest.raises(ValueError, match="task 0.*task 1|vector.*scalar"):
            buffer.all_noise_scales()

    def test_scalar_noise_scales_concatenate(self):
        buffer = MemoryBuffer(50, 5)
        a = record(0)
        a.noise_scales = np.ones(5)
        b = record(1)
        b.noise_scales = np.zeros(5)
        buffer.add(a)
        buffer.add(b)
        assert buffer.all_noise_scales().shape == (10,)


class TestBufferStateDict:
    def test_roundtrip_with_all_optional_fields(self):
        buffer = MemoryBuffer(50, 5)
        full = record(0, with_targets=True)
        buffer.add(full)
        buffer.add(record(1))
        restored = MemoryBuffer.from_state_dict(buffer.state_dict())
        assert restored.total_budget == 50
        assert restored.n_tasks == 5
        assert len(restored) == len(buffer)
        for a, b in zip(restored.records, buffer.records):
            assert a.task_id == b.task_id
            np.testing.assert_array_equal(a.samples, b.samples)

    def test_roundtrip_without_optional_fields(self):
        buffer = MemoryBuffer(50, 5)
        buffer.add(record(0, with_scales=False))
        restored = MemoryBuffer.from_state_dict(buffer.state_dict())
        rec = restored.records[0]
        assert rec.noise_scales is None
        assert rec.targets is None
        with pytest.raises(ValueError):
            restored.all_noise_scales()

    def test_roundtrip_preserves_targets_and_scales(self):
        buffer = MemoryBuffer(50, 5)
        buffer.add(record(0, with_targets=True))
        restored = MemoryBuffer.from_state_dict(buffer.state_dict())
        rec, orig = restored.records[0], buffer.records[0]
        np.testing.assert_array_equal(rec.noise_scales, orig.noise_scales)
        np.testing.assert_array_equal(rec.targets, orig.targets)
        np.testing.assert_array_equal(rec.labels, orig.labels)

    def test_state_dict_copies_arrays(self):
        buffer = MemoryBuffer(50, 5)
        buffer.add(record(0))
        state = buffer.state_dict()
        state["records"][0]["samples"][:] = 99.0
        np.testing.assert_array_equal(buffer.records[0].samples, 0.0)

    def test_empty_buffer_roundtrip(self):
        restored = MemoryBuffer.from_state_dict(MemoryBuffer(50, 5).state_dict())
        assert restored.is_empty
        assert restored.per_task_quota == 10

    def test_restored_buffer_still_enforces_quota(self):
        buffer = MemoryBuffer(10, 5)  # quota 2
        buffer.add(record(0, n=2))
        restored = MemoryBuffer.from_state_dict(buffer.state_dict())
        with pytest.raises(ValueError):
            restored.add(record(1, n=5))
        with pytest.raises(ValueError):
            restored.add(record(0, n=2))  # duplicate task survives restore


class TestQuotaErrorMessage:
    def test_mentions_unused_budget_when_split_uneven(self):
        buffer = MemoryBuffer(11, 5)  # quota 2, 1 unused
        assert buffer.unused_budget == 1
        with pytest.raises(ValueError, match=r"leaves 1 samples of quota unused"):
            buffer.add(record(0, n=3))

    def test_no_hint_when_split_exact(self):
        buffer = MemoryBuffer(10, 5)
        assert buffer.unused_budget == 0
        with pytest.raises(ValueError) as excinfo:
            buffer.add(record(0, n=3))
        assert "unused" not in str(excinfo.value)
