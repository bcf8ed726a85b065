"""Neural-network layers on top of the autograd engine.

Provides the building blocks used across the surveyed architectures: dense
layers and MLPs, embedding tables, and recurrent cells (GRU for KSR/RKGE,
LSTM for KPRN).
"""

from __future__ import annotations

import numpy as np

from repro.core.rng import ensure_rng

from . import ops
from .tensor import Tensor

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "MLP",
    "GRUCell",
    "LSTMCell",
]


class Parameter(Tensor):
    """A tensor flagged as trainable."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class tracking parameters of itself and registered sub-modules.

    Parameter collection walks ``__dict__`` recursively, in attribute
    order, each parameter once.
    """

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        seen: set[int] = set()
        for value in self.__dict__.values():
            for p in _collect(value):
                if id(p) not in seen:
                    seen.add(id(p))
                    params.append(p)
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()


def _collect(value) -> list[Parameter]:
    if isinstance(value, Parameter):
        return [value]
    if isinstance(value, Module):
        return value.parameters()
    if isinstance(value, (list, tuple)):
        out: list[Parameter] = []
        for v in value:
            out.extend(_collect(v))
        return out
    return []


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Linear(Module):
    """Affine layer ``x @ W + b``."""

    def __init__(self, in_dim: int, out_dim: int, bias: bool = True, seed=None) -> None:
        rng = ensure_rng(seed)
        self.weight = Parameter(_glorot(rng, in_dim, out_dim, (in_dim, out_dim)))
        self.bias = Parameter(np.zeros(out_dim)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Trainable lookup table; rows are gathered with differentiable indexing."""

    def __init__(self, num_embeddings: int, dim: int, scale: float | None = None, seed=None) -> None:
        rng = ensure_rng(seed)
        scale = scale if scale is not None else 1.0 / np.sqrt(dim)
        self.weight = Parameter(rng.normal(0.0, scale, size=(num_embeddings, dim)))

    def __call__(self, indices) -> Tensor:
        idx = np.asarray(indices, dtype=np.int64)
        return self.weight[idx]

    @property
    def dim(self) -> int:
        return self.weight.shape[1]


class MLP(Module):
    """Stack of Linear layers with a nonlinearity between (and optionally after)."""

    def __init__(
        self,
        dims: list[int],
        activation: str = "relu",
        final_activation: bool = False,
        seed=None,
    ) -> None:
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        rng = ensure_rng(seed)
        self.layers = [
            Linear(a, b, seed=rng) for a, b in zip(dims[:-1], dims[1:])
        ]
        self._activation = {
            "relu": ops.relu,
            "tanh": ops.tanh,
            "sigmoid": ops.sigmoid,
        }[activation]
        self._final_activation = final_activation

    def __call__(self, x: Tensor) -> Tensor:
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < last or self._final_activation:
                x = self._activation(x)
        return x


class GRUCell(Module):
    """Gated recurrent unit cell (update/reset gates + candidate state)."""

    def __init__(self, input_dim: int, hidden_dim: int, seed=None) -> None:
        rng = ensure_rng(seed)
        self.hidden_dim = hidden_dim
        d = input_dim + hidden_dim
        self.w_z = Linear(d, hidden_dim, seed=rng)
        self.w_r = Linear(d, hidden_dim, seed=rng)
        self.w_h = Linear(d, hidden_dim, seed=rng)

    def __call__(self, x: Tensor, h: Tensor) -> Tensor:
        xh = ops.concat([x, h], axis=-1)
        z = ops.sigmoid(self.w_z(xh))
        r = ops.sigmoid(self.w_r(xh))
        candidate = ops.tanh(self.w_h(ops.concat([x, r * h], axis=-1)))
        return (1.0 - z) * h + z * candidate

    def initial_state(self, batch: int) -> Tensor:
        return Tensor(np.zeros((batch, self.hidden_dim)))


class LSTMCell(Module):
    """Long short-term memory cell with input/forget/output gates.

    One call records a single fused tape node with a hand-written backward
    pass instead of the ~30 nodes of its op-by-op composition (concat, four
    ``Linear`` gates, activations, products).  An optional ``mask`` of shape
    ``(batch, 1)`` holding 0/1 keeps the incoming state on rows whose mask is
    0 (paths that already ended): ``h_next * mask + h * (1 - mask)``, and
    the same for ``c``.

    The backward pass replays the composition's float operations in its
    tape's order, so every output and gradient is bitwise that of the
    composition: the gradient reaching ``[x, h]`` sums the four gates as
    ``((f + o) + i) + c``, the order in which the composed tape accumulates
    them.  ``tests/autograd_reference.py`` keeps the composition as the
    oracle (see ``docs/autograd.md``).
    """

    def __init__(self, input_dim: int, hidden_dim: int, seed=None) -> None:
        rng = ensure_rng(seed)
        self.hidden_dim = hidden_dim
        d = input_dim + hidden_dim
        self.w_i = Linear(d, hidden_dim, seed=rng)
        self.w_f = Linear(d, hidden_dim, seed=rng)
        self.w_o = Linear(d, hidden_dim, seed=rng)
        self.w_c = Linear(d, hidden_dim, seed=rng)

    def __call__(
        self, x: Tensor, state: tuple[Tensor, Tensor], mask: np.ndarray | None = None
    ) -> tuple[Tensor, Tensor]:
        h, c = state
        gates = (self.w_i, self.w_f, self.w_o, self.w_c)
        xh = np.concatenate([x.data, h.data], axis=-1)
        pre = [xh @ lin.weight.data + lin.bias.data for lin in gates]
        i, f, o = (ops.sigmoid_array(a) for a in pre[:3])
        g = np.tanh(pre[3])
        c_prev = c.data
        c_next = f * c_prev + i * g
        tc = np.tanh(c_next)
        h_next = o * tc
        if mask is None:
            h_new, c_new = h_next, c_next
        else:
            keep = 1.0 - mask
            h_new = h_next * mask + h.data * keep
            c_new = c_next * mask + c_prev * keep
        params = tuple(t for lin in gates for t in (lin.weight, lin.bias))
        # The step node's gradient slot collects (d h_new, d c_new) from the
        # two output tensors, which are its only children; either may stay
        # None when nothing downstream uses that output.
        pending: list[np.ndarray | None] = [None, None]

        def backward(__) -> None:
            dh_out, dc_out = pending
            dh_next = dc_next = None
            if dh_out is not None:
                dh_next = dh_out if mask is None else dh_out * mask
            if dc_out is not None:
                dc_next = dc_out if mask is None else dc_out * mask
            dpre: list[np.ndarray | None] = [None, None, None, None]
            if dh_next is not None:
                dpre[2] = dh_next * tc * o * (1.0 - o)
                dtc = dh_next * o * (1.0 - tc**2)
                dc_next = dtc if dc_next is None else dc_next + dtc
            if dc_next is not None:
                dpre[0] = dc_next * g * i * (1.0 - i)
                dpre[1] = dc_next * c_prev * f * (1.0 - f)
                dpre[3] = dc_next * i * (1.0 - g**2)
            dxh = None
            for k in (1, 2, 0, 3):  # the composed tape's order: f, o, i, c
                dp = dpre[k]
                if dp is None:
                    continue
                lin = gates[k]
                if lin.weight.requires_grad:
                    lin.weight._accumulate(xh.T @ dp, owned=True)
                if lin.bias.requires_grad:
                    lin.bias._accumulate(dp.sum(axis=0), owned=True)
                contribution = dp @ lin.weight.data.T
                if dxh is None:
                    dxh = contribution
                else:
                    dxh += contribution
            split = x.data.shape[-1]
            if dxh is not None:
                if x.requires_grad:
                    x._accumulate(dxh[:, :split])
                if h.requires_grad:
                    h._accumulate(dxh[:, split:])
            if mask is not None:
                if h.requires_grad and dh_out is not None:
                    h._accumulate(dh_out * keep, owned=True)
                if c.requires_grad and dc_out is not None:
                    c._accumulate(dc_out * keep, owned=True)
            if c.requires_grad and dc_next is not None:
                c._accumulate(dc_next * f, owned=True)

        node = Tensor._make(h_new, (x, h, c) + params, backward)
        if not node.requires_grad:
            return Tensor(h_new), Tensor(c_new)

        def to_node(slot: int):
            def backward(grad: np.ndarray) -> None:
                pending[slot] = grad
                node._grad = pending

            return backward

        return (
            Tensor._make(h_new, (node,), to_node(0)),
            Tensor._make(c_new, (node,), to_node(1)),
        )

    def initial_state(self, batch: int) -> tuple[Tensor, Tensor]:
        zeros = np.zeros((batch, self.hidden_dim))
        return Tensor(zeros), Tensor(zeros.copy())
