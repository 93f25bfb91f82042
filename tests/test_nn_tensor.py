"""Unit and property tests for the test oracle's autograd engine (oracle.tensor)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import Tensor, concat
from oracle import functional as F

from helpers import numeric_grad


def check_gradient(build_loss, x0: np.ndarray, atol: float = 1e-5):
    """Compare autograd gradient of build_loss(Tensor) with finite differences."""
    t = Tensor(np.array(x0, copy=True), requires_grad=True)
    loss = build_loss(t)
    loss.backward()
    expected = numeric_grad(lambda arr: build_loss(Tensor(arr)).item(), np.array(x0, copy=True))
    np.testing.assert_allclose(t.grad, expected, atol=atol, rtol=1e-4)


class TestBasicOps:
    def test_add_forward(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.numpy(), [4.0, 6.0])

    def test_add_grad(self):
        check_gradient(lambda t: (t + t * 2.0).sum(), np.array([1.0, -2.0, 3.0]))

    def test_mul_grad(self):
        check_gradient(lambda t: (t * t).sum(), np.array([1.5, -0.5]))

    def test_sub_and_neg(self):
        out = Tensor([5.0]) - Tensor([3.0])
        np.testing.assert_allclose(out.numpy(), [2.0])
        check_gradient(lambda t: (-t).sum(), np.array([2.0, 3.0]))

    def test_div_grad(self):
        check_gradient(lambda t: (t / 2.0).sum(), np.array([1.0, 4.0]))
        check_gradient(lambda t: (1.0 / t).sum(), np.array([1.0, 4.0]))

    def test_pow_grad(self):
        check_gradient(lambda t: (t ** 3.0).sum(), np.array([1.2, 0.7]))

    def test_matmul_forward(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose((a @ b).numpy(), b.numpy())

    def test_matmul_grad_left(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(3, 2))
        check_gradient(lambda t: (t @ Tensor(w)).sum(), rng.normal(size=(4, 3)))

    def test_matmul_grad_right(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3))
        check_gradient(lambda t: (Tensor(x) @ t).sum(), rng.normal(size=(3, 2)))

    def test_scalar_right_ops(self):
        t = Tensor([2.0])
        np.testing.assert_allclose((3.0 - t).numpy(), [1.0])
        np.testing.assert_allclose((3.0 + t).numpy(), [5.0])
        np.testing.assert_allclose((3.0 * t).numpy(), [6.0])


class TestBroadcasting:
    def test_bias_broadcast_grad(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 3))
        check_gradient(lambda b: (Tensor(x) + b).sum(), rng.normal(size=(3,)))

    def test_scalar_broadcast_grad(self):
        check_gradient(lambda t: (t * np.array([[1.0, 2.0], [3.0, 4.0]])).sum(),
                       np.array(2.0))

    def test_keepdims_broadcast(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 3))
        check_gradient(lambda t: (t * t.sum(axis=1, keepdims=True)).sum(), x)


class TestReductionsAndShapes:
    def test_sum_axis(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        np.testing.assert_allclose(t.sum(axis=0).numpy(), [3.0, 5.0, 7.0])
        np.testing.assert_allclose(t.sum(axis=1).numpy(), [3.0, 12.0])

    def test_mean_grad(self):
        check_gradient(lambda t: t.mean(), np.array([1.0, 2.0, 3.0, 4.0]))

    def test_mean_axis_grad(self):
        rng = np.random.default_rng(4)
        check_gradient(lambda t: t.mean(axis=0).sum(), rng.normal(size=(3, 2)))

    def test_reshape_grad(self):
        check_gradient(lambda t: (t.reshape(2, 2) * 2.0).sum(), np.arange(4.0))

    def test_transpose_grad(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(2, 3))
        check_gradient(lambda t: (t.T * w).sum(), rng.normal(size=(3, 2)))

    def test_getitem_slice_grad(self):
        check_gradient(lambda t: t[1:3].sum(), np.arange(5.0))

    def test_getitem_fancy_grad(self):
        idx = np.array([0, 0, 2])

        def loss(t):
            return t[idx].sum()

        t = Tensor(np.arange(3.0), requires_grad=True)
        loss(t).backward()
        np.testing.assert_allclose(t.grad, [2.0, 0.0, 1.0])

    def test_concat_grad(self):
        rng = np.random.default_rng(6)
        a0 = rng.normal(size=(2, 2))
        b0 = rng.normal(size=(2, 3))
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * out).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * a0)
        np.testing.assert_allclose(b.grad, 2 * b0)

    def test_concat_axis0(self):
        a = Tensor(np.ones((1, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = concat([a, b], axis=0)
        assert out.shape == (4, 2)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((1, 2)))


class TestNonlinearities:
    def test_relu(self):
        t = Tensor([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(t.relu().numpy(), [0.0, 0.0, 2.0])

    def test_relu_grad(self):
        check_gradient(lambda t: t.relu().sum(), np.array([-1.0, 0.5, 2.0]))

    def test_tanh_grad(self):
        check_gradient(lambda t: t.tanh().sum(), np.array([-0.3, 0.8]))

    def test_sigmoid_grad(self):
        check_gradient(lambda t: t.sigmoid().sum(), np.array([-0.3, 0.8]))

    def test_exp_log_grad(self):
        check_gradient(lambda t: t.exp().sum(), np.array([0.1, -0.2]))
        check_gradient(lambda t: t.log().sum(), np.array([0.5, 2.0]))


class TestBackwardSemantics:
    def test_grad_accumulates_over_backward_calls(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2.0).backward()
        (t * 2.0).backward()
        np.testing.assert_allclose(t.grad, [4.0])

    def test_reused_node_grad(self):
        # y = x*x + x ; dy/dx = 2x + 1
        t = Tensor([3.0], requires_grad=True)
        (t * t + t).backward()
        np.testing.assert_allclose(t.grad, [7.0])

    def test_diamond_graph(self):
        # z = (x+x) * (x*2) = 4x^2, dz/dx = 8x
        t = Tensor([2.0], requires_grad=True)
        a = t + t
        b = t * 2.0
        (a * b).backward()
        np.testing.assert_allclose(t.grad, [16.0])

    def test_no_grad_without_flag(self):
        t = Tensor([1.0])
        out = t * 3.0
        out.backward()
        assert t.grad is None

    def test_detach_cuts_graph(self):
        t = Tensor([1.0], requires_grad=True)
        (t.detach() * 5.0).backward()
        assert t.grad is None

    def test_deep_chain_no_recursion(self):
        # Iterative topo-sort should handle graphs deeper than any recursion limit.
        t = Tensor([1.0], requires_grad=True)
        out = t
        for _ in range(3000):
            out = out + 0.0
        out.backward()
        np.testing.assert_allclose(t.grad, [1.0])


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=6))
    def test_sum_linearity(self, values):
        t = Tensor(np.array(values), requires_grad=True)
        (t.sum() * 3.0).backward()
        np.testing.assert_allclose(t.grad, np.full(len(values), 3.0))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5))
    def test_matmul_shapes(self, n, m):
        a = Tensor(np.ones((n, m)))
        b = Tensor(np.ones((m, 2)))
        assert (a @ b).shape == (n, 2)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=2, max_size=8))
    def test_softmax_normalizes(self, values):
        probs = F.softmax(np.array([values]))
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-9)
        assert (probs >= 0).all()


class TestErrors:
    def test_embedding_requires_int(self):
        weight = Tensor(np.zeros((4, 2)), requires_grad=True)
        with pytest.raises(TypeError):
            F.embedding(weight, np.array([0.5]))
