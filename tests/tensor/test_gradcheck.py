"""Tests for the gradient-checking utility itself.

A gradient checker that cannot detect wrong gradients is worse than none:
these tests feed it deliberately broken backward functions and require it
to fail loudly.
"""

import numpy as np
import pytest

from repro.tensor import Tensor, check_gradients, engine, numerical_gradient


class TestNumericalGradient:
    def test_matches_analytic_for_quadratic(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        grad = numerical_gradient(lambda t: (t * t).sum(), [x], 0)
        np.testing.assert_allclose(grad, 2 * x, rtol=1e-5)

    def test_respects_index_argument(self):
        a = np.ones((2, 2))
        b = np.full((2, 2), 3.0)
        grad_a = numerical_gradient(lambda x, y: (x * y).sum(), [a, b], 0)
        grad_b = numerical_gradient(lambda x, y: (x * y).sum(), [a, b], 1)
        np.testing.assert_allclose(grad_a, b, rtol=1e-5)
        np.testing.assert_allclose(grad_b, a, rtol=1e-5)


class TestCheckGradients:
    def test_passes_for_correct_op(self):
        assert check_gradients(lambda t: (t ** 2).sum(), [np.array([1.0, -2.0])])

    def test_detects_wrong_backward(self):
        @engine.register
        class BrokenDouble(engine.Op):
            # forward is t*2 but backward claims gradient 3
            name = "test_broken_double"

            @staticmethod
            def forward(ctx, a):
                return 2.0 * a

            @staticmethod
            def backward(ctx, grad):
                return (3.0 * grad,)

        try:
            with pytest.raises(AssertionError, match="gradient mismatch"):
                check_gradients(lambda t: engine.apply(BrokenDouble.name, t),
                                [np.array([1.0, 2.0])])
        finally:
            engine._REGISTRY.pop(BrokenDouble.name)

    def test_detects_missing_backward(self):
        def leaky(t: Tensor) -> Tensor:
            # silently drops the tape: analytic grad will be zero
            return Tensor(t.data * 5.0)

        with pytest.raises(AssertionError):
            check_gradients(lambda t: leaky(t) + 0.0 * t, [np.array([1.0, 2.0])])

    def test_multiple_inputs_checked_independently(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0])
        assert check_gradients(lambda x, y: (x * y + y).sum(), [a, b])
