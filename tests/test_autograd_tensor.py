"""Autograd engine tests: every op's gradient checked against finite
differences, including a hypothesis property test over random expressions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import ops
from repro.autograd.tensor import Tensor, as_tensor


def numeric_grad(f, x, eps=1e-6):
    """Central finite differences of scalar-valued f at x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        grad[idx] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return grad


def check_unary(op_tensor, op_np, shape=(3, 4), seed=0, positive=False):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    if positive:
        x = np.abs(x) + 0.5
    t = Tensor(x, requires_grad=True)
    out = op_tensor(t).sum()
    out.backward()
    expected = numeric_grad(lambda a: op_np(a).sum(), x)
    np.testing.assert_allclose(t.grad, expected, rtol=1e-5, atol=1e-7)


class TestElementwiseGrads:
    def test_add(self):
        check_unary(lambda t: t + 3.0, lambda a: a + 3.0)

    def test_mul(self):
        check_unary(lambda t: t * 2.5, lambda a: a * 2.5)

    def test_neg_sub(self):
        check_unary(lambda t: 1.0 - t, lambda a: 1.0 - a)

    def test_div(self):
        check_unary(lambda t: t / 3.0, lambda a: a / 3.0)

    def test_rdiv(self):
        check_unary(lambda t: 2.0 / t, lambda a: 2.0 / a, positive=True)

    def test_pow(self):
        check_unary(lambda t: t**3, lambda a: a**3)

    def test_exp(self):
        check_unary(ops.exp, np.exp)

    def test_log(self):
        check_unary(ops.log, np.log, positive=True)

    def test_sigmoid(self):
        check_unary(ops.sigmoid, lambda a: 1 / (1 + np.exp(-a)))

    def test_tanh(self):
        check_unary(ops.tanh, np.tanh)

    def test_relu(self):
        # Avoid kinks at 0 by shifting away from it.
        check_unary(lambda t: ops.relu(t + 0.1), lambda a: np.maximum(a + 0.1, 0))

    def test_softplus(self):
        check_unary(ops.softplus, lambda a: np.logaddexp(0, a))


class TestBroadcastGrads:
    def test_add_broadcast_vector(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4,))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta + tb).sum().backward()
        np.testing.assert_allclose(ta.grad, np.ones_like(a))
        np.testing.assert_allclose(tb.grad, np.full(4, 3.0))

    def test_mul_broadcast_scalar_tensor(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.asarray(2.0), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(b.grad, 4.0)

    def test_mul_broadcast_middle_axis(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(2, 1, 4))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta * tb).sum().backward()
        np.testing.assert_allclose(tb.grad, a.sum(axis=1, keepdims=True))


class TestMatmulGrads:
    def test_2d_2d(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta @ tb).sum().backward()
        np.testing.assert_allclose(
            ta.grad, numeric_grad(lambda x: (x @ b).sum(), a), rtol=1e-5
        )
        np.testing.assert_allclose(
            tb.grad, numeric_grad(lambda x: (a @ x).sum(), b), rtol=1e-5
        )

    def test_1d_2d(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=4)
        b = rng.normal(size=(4, 3))
        ta = Tensor(a, requires_grad=True)
        (ta @ Tensor(b)).sum().backward()
        np.testing.assert_allclose(
            ta.grad, numeric_grad(lambda x: (x @ b).sum(), a), rtol=1e-5
        )

    def test_2d_1d(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=4)
        tb = Tensor(b, requires_grad=True)
        (Tensor(a) @ tb).sum().backward()
        np.testing.assert_allclose(
            tb.grad, numeric_grad(lambda x: (a @ x).sum(), b), rtol=1e-5
        )

    def test_batched(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(2, 4, 2))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta @ tb).sum().backward()
        np.testing.assert_allclose(
            ta.grad, numeric_grad(lambda x: (x @ b).sum(), a), rtol=1e-5
        )
        np.testing.assert_allclose(
            tb.grad, numeric_grad(lambda x: (a @ x).sum(), b), rtol=1e-5
        )

    def test_broadcast_batched_by_2d(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(4, 5))
        tb = Tensor(b, requires_grad=True)
        (Tensor(a) @ tb).sum().backward()
        np.testing.assert_allclose(
            tb.grad, numeric_grad(lambda x: (a @ x).sum(), b), rtol=1e-5
        )

    # A 1-d operand against a batched one.  The upstream gradient ``w`` is
    # non-uniform so that summing the wrong entries cannot pass by symmetry.
    @pytest.mark.parametrize("a_shape", [(3, 5, 4), (2, 3, 5, 4)], ids=["3d", "4d"])
    def test_batched_by_1d(self, a_shape):
        rng = np.random.default_rng(9)
        a = rng.normal(size=a_shape)
        b = rng.normal(size=4)
        w = rng.normal(size=a_shape[:-1])
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        ((ta @ tb) * w).sum().backward()
        np.testing.assert_allclose(
            ta.grad, numeric_grad(lambda x: ((x @ b) * w).sum(), a), rtol=1e-5
        )
        np.testing.assert_allclose(
            tb.grad, numeric_grad(lambda x: ((a @ x) * w).sum(), b), rtol=1e-5
        )

    def test_1d_by_batched(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=4)
        b = rng.normal(size=(3, 4, 2))
        w = rng.normal(size=(3, 2))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        ((ta @ tb) * w).sum().backward()
        np.testing.assert_allclose(
            ta.grad, numeric_grad(lambda x: ((x @ b) * w).sum(), a), rtol=1e-5
        )
        np.testing.assert_allclose(
            tb.grad, numeric_grad(lambda x: ((a @ x) * w).sum(), b), rtol=1e-5
        )


class TestShapeGrads:
    def test_reshape(self):
        x = np.arange(6.0).reshape(2, 3)
        t = Tensor(x, requires_grad=True)
        (t.reshape(3, 2) * 2.0).sum().backward()
        np.testing.assert_allclose(t.grad, np.full((2, 3), 2.0))

    def test_transpose(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3))
        t = Tensor(x, requires_grad=True)
        w = rng.normal(size=(2, 4))
        (t.T @ w).sum().backward()
        np.testing.assert_allclose(
            t.grad, numeric_grad(lambda a: (a.T @ w).sum(), x), rtol=1e-5
        )

    def test_transpose_axes(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        t = Tensor(x, requires_grad=True)
        out = t.transpose(0, 2, 1)
        assert out.shape == (2, 4, 3)
        (out * 3.0).sum().backward()
        np.testing.assert_allclose(t.grad, np.full(x.shape, 3.0))

    def test_getitem_int_array(self):
        x = np.arange(12.0).reshape(4, 3)
        t = Tensor(x, requires_grad=True)
        idx = np.asarray([1, 1, 2])
        t[idx].sum().backward()
        expected = np.zeros_like(x)
        expected[1] = 2.0
        expected[2] = 1.0
        np.testing.assert_allclose(t.grad, expected)

    def test_getitem_slices(self):
        x = np.arange(12.0).reshape(3, 4)
        t = Tensor(x, requires_grad=True)
        t[:, 1:3].sum().backward()
        expected = np.zeros_like(x)
        expected[:, 1:3] = 1.0
        np.testing.assert_allclose(t.grad, expected)


class TestReductionGrads:
    def test_sum_axis(self):
        x = np.arange(6.0).reshape(2, 3)
        t = Tensor(x, requires_grad=True)
        (t.sum(axis=1) ** 2).sum().backward()
        expected = numeric_grad(lambda a: (a.sum(axis=1) ** 2).sum(), x)
        np.testing.assert_allclose(t.grad, expected, rtol=1e-5)

    def test_sum_keepdims(self):
        x = np.ones((2, 3))
        t = Tensor(x, requires_grad=True)
        t.sum(axis=1, keepdims=True).sum().backward()
        np.testing.assert_allclose(t.grad, np.ones_like(x))

    def test_mean(self):
        x = np.arange(4.0)
        t = Tensor(x, requires_grad=True)
        t.mean().backward()
        np.testing.assert_allclose(t.grad, np.full(4, 0.25))

    def test_max(self):
        x = np.asarray([[1.0, 5.0, 2.0], [7.0, 0.0, 3.0]])
        t = Tensor(x, requires_grad=True)
        t.max(axis=1).sum().backward()
        expected = np.asarray([[0, 1, 0], [1, 0, 0]], dtype=float)
        np.testing.assert_allclose(t.grad, expected)

    def test_max_ties_split(self):
        x = np.asarray([[2.0, 2.0]])
        t = Tensor(x, requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.5, 0.5]])


class TestEngine:
    def test_backward_requires_scalar(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            t.backward()

    def test_grad_accumulates_over_reuse(self):
        t = Tensor(np.asarray(2.0), requires_grad=True)
        (t * t).backward()  # d(t^2)/dt = 2t = 4
        np.testing.assert_allclose(t.grad, 4.0)

    def test_diamond_graph(self):
        t = Tensor(np.asarray(3.0), requires_grad=True)
        a = t * 2.0
        b = t + 1.0
        (a * b).backward()  # d(2t(t+1))/dt = 4t + 2
        np.testing.assert_allclose(t.grad, 14.0)

    def test_no_grad_for_constants(self):
        a = as_tensor(np.ones(3))
        out = (a * 2.0).sum()
        assert not out.requires_grad

    def test_zero_grad(self):
        t = Tensor(np.asarray(1.0), requires_grad=True)
        (t * 2.0).backward()
        t.zero_grad()
        assert t.grad is None


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 1000),
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
)
def test_property_composite_expression_gradcheck(seed, rows, cols):
    """Random composite expression: engine grad == finite differences."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, cols))
    w = rng.normal(size=(cols, 2))

    def f(a):
        h = np.tanh(a @ w)
        s = 1.0 / (1.0 + np.exp(-h))
        return (s * s).mean()

    t = Tensor(x, requires_grad=True)
    s = ops.sigmoid(ops.tanh(t @ Tensor(w)))
    (s * s).mean().backward()
    np.testing.assert_allclose(
        t.grad, numeric_grad(f, x), rtol=1e-4, atol=1e-7
    )
