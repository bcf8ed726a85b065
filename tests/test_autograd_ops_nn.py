"""Tests for composite ops, layers, optimizers, and losses."""

import numpy as np
import pytest

from repro.autograd import Adam, losses, nn, ops
from repro.autograd.tensor import Tensor

from .test_autograd_tensor import numeric_grad


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = np.random.default_rng(0).normal(size=(3, 5))
        out = ops.softmax(Tensor(x), axis=1).numpy()
        np.testing.assert_allclose(out.sum(axis=1), np.ones(3))

    def test_shift_invariance(self):
        x = np.random.default_rng(1).normal(size=(2, 4))
        a = ops.softmax(Tensor(x), axis=1).numpy()
        b = ops.softmax(Tensor(x + 100.0), axis=1).numpy()
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_gradient(self):
        x = np.random.default_rng(2).normal(size=(2, 3))
        t = Tensor(x, requires_grad=True)
        (ops.softmax(t, axis=1) ** 2).sum().backward()

        def f(a):
            e = np.exp(a - a.max(axis=1, keepdims=True))
            s = e / e.sum(axis=1, keepdims=True)
            return (s**2).sum()

        np.testing.assert_allclose(t.grad, numeric_grad(f, x), rtol=1e-5, atol=1e-8)


class TestConcatStack:
    def test_concat_values(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 3)))
        out = ops.concat([a, b], axis=1)
        assert out.shape == (2, 5)

    def test_concat_gradient_routing(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        (ops.concat([a, b], axis=1) * np.arange(5.0)).sum().backward()
        np.testing.assert_allclose(a.grad, np.tile([0.0, 1.0], (2, 1)))
        np.testing.assert_allclose(b.grad, np.tile([2.0, 3.0, 4.0], (2, 1)))

    def test_stack_gradient(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        out = ops.stack([a, b], axis=0)
        assert out.shape == (2, 3)
        (out * np.asarray([[1.0], [2.0]])).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))
        np.testing.assert_allclose(b.grad, np.full(3, 2.0))


class TestLayers:
    def test_linear_shapes(self):
        layer = nn.Linear(4, 3, seed=0)
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_linear_no_bias(self):
        layer = nn.Linear(4, 3, bias=False, seed=0)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_embedding_lookup(self):
        emb = nn.Embedding(10, 4, seed=0)
        out = emb(np.asarray([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)

    def test_embedding_gradient_scatter(self):
        emb = nn.Embedding(5, 3, seed=0)
        emb(np.asarray([2, 2])).sum().backward()
        np.testing.assert_allclose(emb.weight.grad[2], np.full(3, 2.0))
        np.testing.assert_allclose(emb.weight.grad[0], np.zeros(3))

    def test_mlp_depth(self):
        mlp = nn.MLP([4, 8, 2], seed=0)
        out = mlp(Tensor(np.ones((3, 4))))
        assert out.shape == (3, 2)
        assert sum(p.size for p in mlp.parameters()) == 4 * 8 + 8 + 8 * 2 + 2

    def test_mlp_requires_two_dims(self):
        with pytest.raises(ValueError):
            nn.MLP([4])

    def test_gru_step_shapes_and_grad(self):
        cell = nn.GRUCell(3, 5, seed=0)
        h = cell.initial_state(2)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3)))
        h2 = cell(x, h)
        assert h2.shape == (2, 5)
        h2.sum().backward()
        assert all(p.grad is not None for p in cell.parameters())

    def test_lstm_step(self):
        cell = nn.LSTMCell(3, 4, seed=0)
        h, c = cell.initial_state(2)
        x = Tensor(np.ones((2, 3)))
        h2, c2 = cell(x, (h, c))
        assert h2.shape == (2, 4) and c2.shape == (2, 4)

    def test_module_collects_nested_params(self):
        class Net(nn.Module):
            def __init__(self):
                self.layers = [nn.Linear(2, 2, seed=0), nn.Linear(2, 2, seed=1)]
                self.emb = nn.Embedding(3, 2, seed=2)

        net = Net()
        assert len(net.parameters()) == 5  # 2x(W,b) + embedding

    def test_module_dedupes_shared_params(self):
        shared = nn.Linear(2, 2, seed=0)

        class Net(nn.Module):
            def __init__(self):
                self.a = shared
                self.b = shared

        assert len(Net().parameters()) == 2


class TestOptimizers:
    def _quadratic_steps(self, optimizer_cls, steps=200, **kwargs):
        x = nn.Parameter(np.asarray([5.0, -3.0]))
        opt = optimizer_cls([x], **kwargs)
        for __ in range(steps):
            loss = (x * x).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
        return np.abs(x.data).max()

    def test_adam_converges(self):
        assert self._quadratic_steps(Adam, lr=0.2) < 1e-3

    def test_weight_decay_shrinks(self):
        x = nn.Parameter(np.asarray([1.0]))
        opt = Adam([x], lr=0.1, weight_decay=0.5)
        loss = (x * 0.0).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
        assert x.data[0] < 1.0

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam([], lr=-1.0)

    def test_skips_params_without_grad(self):
        x = nn.Parameter(np.asarray([1.0]))
        Adam([x], lr=0.1).step()  # no backward happened
        np.testing.assert_allclose(x.data, [1.0])


class TestLosses:
    def test_bpr_loss_ordering(self):
        good = losses.bpr_loss(Tensor(np.asarray([5.0])), Tensor(np.asarray([-5.0])))
        bad = losses.bpr_loss(Tensor(np.asarray([-5.0])), Tensor(np.asarray([5.0])))
        assert good.item() < bad.item()

    def test_bpr_loss_at_equality(self):
        loss = losses.bpr_loss(Tensor(np.zeros(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(loss.item(), np.log(2.0), rtol=1e-6)

    def test_bce_matches_manual(self):
        logits = np.asarray([0.5, -1.0, 2.0])
        targets = np.asarray([1.0, 0.0, 1.0])
        loss = losses.bce_with_logits(Tensor(logits), targets).item()
        p = 1 / (1 + np.exp(-logits))
        manual = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
        np.testing.assert_allclose(loss, manual, rtol=1e-8)

    def test_bce_gradient(self):
        logits = np.random.default_rng(0).normal(size=4)
        targets = np.asarray([1.0, 0.0, 1.0, 0.0])
        t = Tensor(logits, requires_grad=True)
        losses.bce_with_logits(t, targets).backward()

        def f(a):
            return (np.logaddexp(0, a) - targets * a).mean()

        np.testing.assert_allclose(t.grad, numeric_grad(f, logits), rtol=1e-5)

    def test_margin_loss_zero_when_separated(self):
        # distance-style: positive (small) vs negative (large)
        loss = losses.margin_ranking_loss(
            Tensor(np.asarray([0.1])), Tensor(np.asarray([5.0])), margin=1.0
        )
        assert loss.item() == 0.0

    def test_margin_loss_positive_when_violated(self):
        loss = losses.margin_ranking_loss(
            Tensor(np.asarray([2.0])), Tensor(np.asarray([0.5])), margin=1.0
        )
        np.testing.assert_allclose(loss.item(), 2.5)

    def test_mse(self):
        loss = losses.mse_loss(Tensor(np.asarray([1.0, 2.0])), np.asarray([0.0, 0.0]))
        np.testing.assert_allclose(loss.item(), 2.5)
