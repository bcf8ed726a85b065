"""Differentiable operations beyond :class:`~repro.autograd.tensor.Tensor`'s
operators: activations, softmax, concatenation, stacking, and norms.

These free functions build tape nodes exactly like tensor methods do and are
used by the neural layers in :mod:`repro.autograd.nn`.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "exp",
    "log",
    "sigmoid",
    "tanh",
    "relu",
    "softplus",
    "softmax",
    "concat",
    "stack",
    "clip_probability",
]


def exp(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out_data = np.exp(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * out_data)

    return Tensor._make(out_data, (x,), backward)


def log(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out_data = np.log(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad / x.data)

    return Tensor._make(out_data, (x,), backward)


def sigmoid_array(a: np.ndarray) -> np.ndarray:
    """The logistic function on a plain array (clipped against overflow)."""
    return 1.0 / (1.0 + np.exp(-np.clip(a, -500, 500)))


def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out_data = sigmoid_array(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out_data = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (1.0 - out_data**2))

    return Tensor._make(out_data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0
    out_data = x.data * mask

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor._make(out_data, (x,), backward)


def softplus(x: Tensor) -> Tensor:
    """Numerically stable ``log(1 + exp(x))``."""
    x = as_tensor(x)
    out_data = np.logaddexp(0.0, x.data)
    sig = sigmoid_array(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * sig)

    return Tensor._make(out_data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with the usual max-shift for stability."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (grad - dot))

    return Tensor._make(out_data, (x,), backward)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Differentiable concatenation (the survey's ``oplus`` operator)."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, end in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis if axis >= 0 else grad.ndim + axis] = slice(start, end)
                t._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``np.stack`` along a new axis."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slices = np.moveaxis(grad, axis, 0)
        for t, g in zip(tensors, slices):
            if t.requires_grad:
                t._accumulate(g)

    return Tensor._make(out_data, tuple(tensors), backward)


def clip_probability(p: Tensor, eps: float = 1e-9) -> Tensor:
    """Clamp probabilities away from {0, 1} before taking logs.

    Implemented as a straight-through clip: values are clamped in the forward
    pass and the gradient passes only where no clamping occurred.
    """
    p = as_tensor(p)
    out_data = np.clip(p.data, eps, 1.0 - eps)
    mask = (p.data > eps) & (p.data < 1.0 - eps)

    def backward(grad: np.ndarray) -> None:
        if p.requires_grad:
            p._accumulate(grad * mask)

    return Tensor._make(out_data, (p,), backward)
