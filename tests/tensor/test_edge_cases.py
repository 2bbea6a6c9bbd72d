"""Edge cases of the tensor engine: dtypes, reprs, graph boundaries."""

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad, ops


class TestDtypes:
    def test_float32_default_for_lists(self):
        assert Tensor([1, 2, 3]).dtype == np.float32

    def test_mixed_op_with_python_scalar_keeps_dtype(self):
        t = Tensor(np.ones(3, dtype=np.float32))
        assert (t + 1).dtype == np.float32
        assert (t * 2.5).dtype == np.float32

    def test_bool_array_promoted(self):
        t = Tensor(np.array([True, False]))
        assert np.issubdtype(t.dtype, np.floating)


class TestRepr:
    def test_leaf_repr(self):
        assert "leaf" in repr(Tensor([1.0]))

    def test_op_and_grad_flags_in_repr(self):
        t = Tensor([1.0], requires_grad=True)
        out = t * 2.0
        assert "mul" in repr(out)
        assert "requires_grad=True" in repr(out)


class TestGraphBoundaries:
    def test_op_without_grad_inputs_is_leafless(self):
        a = Tensor([1.0])  # no grad
        out = a * 2.0
        assert not out.requires_grad
        assert out._parents == ()

    def test_graph_not_built_under_no_grad(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad

    def test_copy_detaches_and_copies(self):
        a = Tensor([1.0], requires_grad=True)
        b = a.copy()
        assert not b.requires_grad
        b.data[0] = 5.0
        assert a.data[0] == 1.0

    def test_scalar_chain(self):
        x = Tensor(2.0, requires_grad=True)
        y = ops.exp(x * x)
        y.backward()
        np.testing.assert_allclose(x.grad, 2 * 2.0 * np.exp(4.0), rtol=1e-5)

    def test_long_chain_depth(self):
        """Iterative topo sort must handle deep graphs (no recursion limit)."""
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.backward(np.ones(1))
        np.testing.assert_allclose(x.grad, [1.0])

    def test_zero_size_batch_forward(self):
        t = Tensor(np.zeros((0, 4)))
        out = (t * 2.0).sum(axis=1)
        assert out.shape == (0,)


class TestViewsAndAliasing:
    def test_detach_write_visible_through_original(self):
        """detach() shares storage by design (documented); writes alias."""
        a = Tensor(np.ones(3))
        d = a.detach()
        d.data[0] = 9.0
        assert a.data[0] == 9.0

    def test_backward_grad_not_aliased_to_seed(self):
        x = Tensor([1.0], requires_grad=True)
        seed = np.ones(1)
        (x * 1.0).backward(seed)
        seed[0] = 100.0
        np.testing.assert_allclose(x.grad, [1.0])
