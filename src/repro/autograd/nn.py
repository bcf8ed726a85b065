"""Neural-network layers on top of the autograd engine.

Provides the building blocks used across the surveyed architectures: dense
layers and MLPs, embedding tables, recurrent cells (GRU for KSR/RKGE, LSTM
for KPRN), additive attention, and a 1-d convolution used by the Kim-CNN
text encoder inside DKN/MCRec.
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
    "AdditiveAttention",
    "Conv1d",
]


class Parameter(Tensor):
    """A tensor flagged as trainable."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class tracking parameters of itself and registered sub-modules.

    Parameter collection walks ``__dict__`` recursively; hot callers
    (:meth:`zero_grad`, called once per optimizer step) go through a cached
    list instead of re-walking the attribute tree.  The cache is invalidated
    whenever an attribute is (re)assigned on this module; mutating a nested
    container or a sub-module *in place* after training started is outside
    the contract.
    """

    _PARAM_CACHE_KEY = "_param_cache"

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        seen: set[int] = set()
        for key, value in self.__dict__.items():
            if key == Module._PARAM_CACHE_KEY:
                continue
            for p in _collect(value):
                if id(p) not in seen:
                    seen.add(id(p))
                    params.append(p)
        return params

    def cached_parameters(self) -> list[Parameter]:
        """Like :meth:`parameters` but memoized until an attribute changes."""
        cache = self.__dict__.get(Module._PARAM_CACHE_KEY)
        if cache is None:
            cache = self.parameters()
            self.__dict__[Module._PARAM_CACHE_KEY] = cache
        return cache

    def __setattr__(self, name: str, value) -> None:
        self.__dict__.pop(Module._PARAM_CACHE_KEY, None)
        object.__setattr__(self, name, value)

    def zero_grad(self) -> None:
        for p in self.cached_parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())


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
    """Long short-term memory cell with input/forget/output gates."""

    def __init__(self, input_dim: int, hidden_dim: int, seed=None) -> None:
        rng = ensure_rng(seed)
        self.hidden_dim = hidden_dim
        d = input_dim + hidden_dim
        self.w_i = Linear(d, hidden_dim, seed=rng)
        self.w_f = Linear(d, hidden_dim, seed=rng)
        self.w_o = Linear(d, hidden_dim, seed=rng)
        self.w_c = Linear(d, hidden_dim, seed=rng)

    def __call__(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        h, c = state
        xh = ops.concat([x, h], axis=-1)
        i = ops.sigmoid(self.w_i(xh))
        f = ops.sigmoid(self.w_f(xh))
        o = ops.sigmoid(self.w_o(xh))
        g = ops.tanh(self.w_c(xh))
        c_next = f * c + i * g
        h_next = o * ops.tanh(c_next)
        return h_next, c_next

    def initial_state(self, batch: int) -> tuple[Tensor, Tensor]:
        zeros = np.zeros((batch, self.hidden_dim))
        return Tensor(zeros), Tensor(zeros.copy())


class AdditiveAttention(Module):
    """Bahdanau-style attention scoring ``v^T tanh(W [key; query])``.

    ``__call__`` takes keys ``(n, d_k)`` and a query ``(d_q,)`` and returns
    ``(weights, pooled)`` where weights sum to one over the ``n`` keys.
    """

    def __init__(self, key_dim: int, query_dim: int, hidden_dim: int = 16, seed=None) -> None:
        rng = ensure_rng(seed)
        self.proj = Linear(key_dim + query_dim, hidden_dim, seed=rng)
        self.score = Linear(hidden_dim, 1, bias=False, seed=rng)

    def __call__(self, keys: Tensor, query: Tensor) -> tuple[Tensor, Tensor]:
        n = keys.shape[0]
        tiled = ops.stack([query] * n, axis=0)
        hidden = ops.tanh(self.proj(ops.concat([keys, tiled], axis=-1)))
        logits = self.score(hidden).reshape(n)
        weights = ops.softmax(logits, axis=-1)
        pooled = weights.reshape(1, n) @ keys
        return weights, pooled.reshape(keys.shape[1])


class Conv1d(Module):
    """Valid 1-d convolution over a sequence of vectors (Kim CNN block).

    Input ``(seq_len, in_dim)``; output ``(seq_len - kernel + 1, out_dim)``.
    Implemented by unfolding windows and a single matmul, so the backward
    pass reuses the engine's matmul gradient.
    """

    def __init__(self, in_dim: int, out_dim: int, kernel_size: int, seed=None) -> None:
        rng = ensure_rng(seed)
        self.kernel_size = kernel_size
        self.weight = Parameter(
            _glorot(rng, kernel_size * in_dim, out_dim, (kernel_size * in_dim, out_dim))
        )
        self.bias = Parameter(np.zeros(out_dim))

    def __call__(self, x: Tensor) -> Tensor:
        seq_len, in_dim = x.shape
        k = self.kernel_size
        if seq_len < k:
            raise ValueError(f"sequence length {seq_len} < kernel size {k}")
        windows = [
            x[i : i + k].reshape(1, k * in_dim) for i in range(seq_len - k + 1)
        ]
        unfolded = ops.concat(windows, axis=0)
        return unfolded @ self.weight + self.bias
