"""The replay memory and frozen teacher every continual method shares.

``ReplayMemory`` owns the episodic buffer and ``FrozenTeacher`` the
previous-increment snapshot; each method lists them as bases.  The
checkpoint key order those bases produce is pinned in
``tests/runtime/test_state_serializable.py``, and their state round trip
by the kill-and-resume tests in ``tests/integration/test_resume.py``.
"""

import numpy as np

from repro.continual import (CaSSLe, DER, EDSR, GenerativeReplay,
                             LinContinual, LUMP, PFR, build_objective,
                             make_method)
from repro.continual.method import FrozenTeacher, ReplayMemory
from repro.replay import UniformSampling
from repro.ssl.distill import teacher_target
from repro.tensor.tensor import no_grad


def built(name, config, sequence):
    if name == "curl":  # generative replay needs the VAE objective
        config = config.with_overrides(objective="vae")
    rng = np.random.default_rng(0)
    objective = build_objective(config, sequence[0].train.x.shape[1:], rng)
    return make_method(name, objective, config, rng)


def test_methods_reach_the_shared_blocks():
    for cls in (DER, LUMP, EDSR, LinContinual):
        assert issubclass(cls, ReplayMemory), cls
    for cls in (CaSSLe, PFR, EDSR, LinContinual, GenerativeReplay):
        assert issubclass(cls, FrozenTeacher), cls


class TestReplayMemory:
    def test_buffer_created_once_at_first_begin(self, fast_config, tiny_sequence):
        method = built("der", fast_config, tiny_sequence)
        assert method.buffer is None
        method.begin_task(tiny_sequence[0], 0, 3)
        buffer = method.buffer
        assert buffer.n_tasks == 3
        assert buffer.total_budget == fast_config.memory_budget
        method.begin_task(tiny_sequence[1], 1, 5)
        assert method.buffer is buffer

    def test_random_store_indices_are_one_distinct_quota(self, fast_config,
                                                         tiny_sequence):
        method = built("lump", fast_config, tiny_sequence)
        task = tiny_sequence[0]
        method.begin_task(task, 0, 3)
        chosen = method.random_store_indices(task)
        assert len(chosen) == method.buffer.per_task_quota
        assert len(np.unique(chosen)) == len(chosen)
        assert chosen.min() >= 0 and chosen.max() < len(task.train)

    def test_random_store_indices_clip_to_task_size(self, fast_config,
                                                    tiny_sequence):
        config = fast_config.with_overrides(memory_budget=1000)
        method = built("der", config, tiny_sequence)
        task = tiny_sequence[0]
        method.begin_task(task, 0, 1)
        assert sorted(method.random_store_indices(task)) == list(range(len(task.train)))

    def test_uniform_draw_unless_the_method_installs_a_policy(
            self, fast_config, tiny_sequence):
        for name in ("der", "lin"):
            method = built(name, fast_config, tiny_sequence)
            assert isinstance(method.sampling, UniformSampling)
        config = fast_config.with_overrides(replay_sampling="similarity")
        method = built("edsr", config, tiny_sequence)
        assert method.sampling.name == "similarity"


class TestFrozenTeacher:
    def test_no_teacher_on_first_task(self, fast_config, tiny_sequence):
        method = built("lin", fast_config, tiny_sequence)
        method.begin_task(tiny_sequence[0], 0, 3)
        assert method.old_objective is None

    def test_teacher_is_a_detached_eval_copy(self, fast_config, tiny_sequence):
        method = built("curl", fast_config, tiny_sequence)
        method.begin_task(tiny_sequence[1], 1, 3)
        teacher = method.old_objective
        assert teacher is not None and teacher is not method.objective
        assert not teacher.training and method.objective.training
        for old, live in zip(teacher.parameters(), method.objective.parameters()):
            np.testing.assert_array_equal(old.data, live.data)
            assert not np.shares_memory(old.data, live.data)

    def test_each_increment_takes_a_new_snapshot(self, fast_config,
                                                 tiny_sequence):
        method = built("cassle", fast_config, tiny_sequence)
        method.begin_task(tiny_sequence[1], 1, 3)
        first = method.old_objective
        method.begin_task(tiny_sequence[2], 2, 3)
        assert method.old_objective is not first


class TestTeacherTarget:
    def test_matches_the_no_grad_representation(self, fast_config,
                                                tiny_sequence):
        method = built("cassle", fast_config, tiny_sequence)
        method.begin_task(tiny_sequence[1], 1, 3)
        x = tiny_sequence[1].train.x[:8]
        target = teacher_target(method.old_objective, x)
        assert isinstance(target, np.ndarray)
        with no_grad():
            expected = method.old_objective.representation(x).numpy()
        np.testing.assert_array_equal(target, expected)
