"""Reverse-mode autograd engine and neural building blocks (pure NumPy)."""

from . import losses, nn, ops
from .optim import Adam, Optimizer
from .sparse import SparseGrad
from .tensor import Tensor, as_tensor

__all__ = [
    "Tensor",
    "as_tensor",
    "SparseGrad",
    "ops",
    "nn",
    "losses",
    "Optimizer",
    "Adam",
]
