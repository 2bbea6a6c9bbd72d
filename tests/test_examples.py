"""The example scripts still run against the current library.

Each example is loaded from ``examples/`` as a module (its ``main`` stays
unrun) and its building blocks are exercised on the tiny test sequence.
"""

import importlib.util
import pathlib

import numpy as np

from repro.continual import ContinualTrainer, build_objective

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(f"example_{name}",
                                                  EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def edsr_lite_trainer(config, sequence, **kwargs):
    edsr_lite = load_example("custom_method").EDSRLite
    rng = np.random.default_rng(0)
    objective = build_objective(config, sequence[0].train.x.shape[1:], rng)
    return ContinualTrainer(edsr_lite(objective, config, rng), config, rng,
                            verbose=False, **kwargs)


class TestCustomMethodExample:
    def test_edsr_lite_trains_over_a_sequence(self, fast_config, tiny_sequence):
        trainer = edsr_lite_trainer(fast_config, tiny_sequence)
        result = trainer.run(tiny_sequence)
        assert result.complete
        seen = np.tril_indices(len(tiny_sequence))  # row i probes tasks <= i
        assert np.isfinite(result.accuracy_matrix[seen]).all()
        method = trainer.method
        assert len(method.buffer) == len(tiny_sequence) * method.buffer.per_task_quota
        assert method.old_objective is not None and method.head is not None
        assert list(method.state_dict()) == ["objective", "buffer",
                                             "old_objective", "head"]

    def test_edsr_lite_resumes_bit_for_bit(self, fast_config, tiny_sequence,
                                           tmp_path):
        expected = edsr_lite_trainer(fast_config, tiny_sequence).run(tiny_sequence)
        edsr_lite_trainer(fast_config, tiny_sequence,
                          checkpoint_dir=tmp_path).run(tiny_sequence)
        last = len(tiny_sequence) - 1
        (tmp_path / f"ckpt-{last:05d}.json").unlink()
        (tmp_path / f"ckpt-{last:05d}.npz").unlink()
        resumed = edsr_lite_trainer(fast_config, tiny_sequence,
                                    checkpoint_dir=tmp_path)
        result = resumed.run(tiny_sequence, resume=True)
        np.testing.assert_array_equal(result.accuracy_matrix,
                                      expected.accuracy_matrix)
