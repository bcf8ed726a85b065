"""A small reverse-mode automatic differentiation engine over NumPy.

The surveyed models mix embeddings, MLPs, recurrent cells, CNN text encoders,
attention, and GNN message passing.  Rather than hand-deriving gradients per
model, the library ships this minimal autograd: a :class:`Tensor` wrapping a
NumPy array, a computation tape, and reverse-mode :meth:`Tensor.backward`.

Design notes
------------
* Only float64 arrays; shapes follow NumPy broadcasting, and gradients of
  broadcast operands are reduced back to the operand shape.
* Integer "fancy" indexing is differentiable (scatter-add on the backward
  pass), which is how embedding lookups are implemented.  When the indexed
  tensor is a 2-d *leaf* (an embedding table), the backward pass produces a
  :class:`~repro.autograd.sparse.SparseGrad` — row indices plus gradient
  rows — instead of a dense zeros table, so mini-batch cost scales with the
  batch, not the table.  Reading :attr:`Tensor.grad` densifies on demand;
  sparse-aware consumers (optimizers, runtime guards) use
  :attr:`Tensor.raw_grad`.
* The tape is built eagerly; :meth:`Tensor.backward` topologically sorts it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from .sparse import SparseGrad, coalesce_rows

__all__ = ["Tensor", "as_tensor", "no_tape"]


class _TapeState(threading.local):
    recording = True


_TAPE = _TapeState()


@contextmanager
def no_tape() -> Iterator[None]:
    """Run the block without recording a tape (inference only).

    Every op computes the same values but returns a constant tensor with
    no parents and no backward closure, so nothing is kept alive for a
    backward pass that will never run.  Per thread; restored on exit,
    including when the block raises.
    """
    previous = _TAPE.recording
    _TAPE.recording = False
    try:
        yield
    finally:
        _TAPE.recording = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were added or broadcast from ``shape``."""
    if grad.shape == shape:
        return grad
    # Remove leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes where the original dimension was 1.
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _as_row_index(index) -> np.ndarray | None:
    """``index`` as an int64 axis-0 row-index array, or ``None`` if it is
    not plain integer fancy indexing (slices, masks, tuples, ...)."""
    if isinstance(index, (int, np.integer)):
        return np.asarray(index, dtype=np.int64)
    if isinstance(index, np.ndarray) and index.dtype.kind in "iu":
        return index.astype(np.int64, copy=False)
    if isinstance(index, list):
        arr = np.asarray(index)
        if arr.dtype.kind in "iu":
            return arr.astype(np.int64, copy=False)
    return None


class Tensor:
    """A NumPy array with an attached gradient and backward function."""

    __slots__ = ("data", "_grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        if type(data) is not np.ndarray or data.dtype != np.float64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self._grad: np.ndarray | SparseGrad | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------------ #
    # gradient access
    # ------------------------------------------------------------------ #
    @property
    def grad(self) -> np.ndarray | None:
        """The gradient as a dense array (densifies a sparse grad in place)."""
        g = self._grad
        if isinstance(g, SparseGrad):
            g = g.to_dense()
            self._grad = g
        return g

    @grad.setter
    def grad(self, value) -> None:
        self._grad = value

    @property
    def raw_grad(self) -> np.ndarray | SparseGrad | None:
        """The gradient in raw form — dense array or :class:`SparseGrad`."""
        return self._grad

    # ------------------------------------------------------------------ #
    # autograd machinery
    # ------------------------------------------------------------------ #
    def _accumulate(self, grad, owned: bool = False) -> None:
        """Add ``grad`` (dense or :class:`SparseGrad`) into this tensor.

        ``owned=True`` promises ``grad`` is a freshly allocated array no one
        else references, letting the first accumulation store it directly
        instead of copying (sparse grads are always fresh by construction).
        """
        current = self._grad
        if isinstance(grad, SparseGrad):
            if current is None:
                self._grad = grad
            elif isinstance(current, SparseGrad):
                self._grad = current.merge(grad)
            else:
                grad.add_into(current)
        elif current is None:
            # np.asarray also promotes 0-d NumPy scalars (e.g. from
            # ``grad * other.data`` on 0-d tensors) to real arrays, so the
            # in-place ``+=`` below always works on later accumulations.
            arr = np.asarray(grad)
            self._grad = arr if owned and arr is grad else arr.copy()
        elif isinstance(current, SparseGrad):
            dense = current.to_dense()
            dense += grad
            self._grad = dense
        else:
            current += grad

    def zero_grad(self) -> None:
        self._grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to 1 for scalar outputs; non-scalar roots require
        an explicit seed gradient.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() on non-scalar requires a gradient")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64).reshape(self.data.shape)

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is None:
                continue
            g = node._grad
            if g is None:
                continue
            if isinstance(g, SparseGrad):
                # Interior nodes need the dense form to keep propagating.
                g = g.to_dense()
                node._grad = g
            node._backward(g)

    @staticmethod
    def _make(data, parents: tuple["Tensor", ...], backward) -> "Tensor":
        if not _TAPE.recording:
            return Tensor(data)
        kept = tuple([p for p in parents if p.requires_grad])
        if not kept:
            return Tensor(data)
        return Tensor(data, True, kept, backward)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                g = _unbroadcast(grad, self.shape)
                self._accumulate(g, owned=g is not grad)
            if other.requires_grad:
                g = _unbroadcast(grad, other.shape)
                other._accumulate(g, owned=g is not grad)

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad, owned=True)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape), owned=True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape), owned=True)

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape), owned=True)
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / other.data**2, other.shape),
                    owned=True,
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(
                    grad * exponent * self.data ** (exponent - 1), owned=True
                )

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self.data, other.data
        out_data = a @ b

        def backward(grad: np.ndarray) -> None:
            # Promote 1-d operands the way numpy's matmul does, compute the
            # 2-d/batched gradient, then squeeze the promoted axis back out.
            a2 = a[None, :] if a.ndim == 1 else a
            b2 = b[:, None] if b.ndim == 1 else b
            g = grad
            if a.ndim == 1:
                g = np.expand_dims(g, axis=-2)
            if b.ndim == 1:
                g = np.expand_dims(g, axis=-1)
            if self.requires_grad:
                ga = g @ np.swapaxes(b2, -1, -2)
                if a.ndim == 1:
                    ga = ga.reshape(-1, a.shape[0]).sum(axis=0)
                self._accumulate(_unbroadcast(ga, self.shape), owned=True)
            if other.requires_grad:
                gb = np.swapaxes(a2, -1, -2) @ g
                if b.ndim == 1:
                    # (..., K, 1): drop the promoted column; _unbroadcast
                    # then sums any batch axes down to (K,).
                    gb = gb[..., 0]
                other._accumulate(_unbroadcast(gb, other.shape), owned=True)

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        axes = axes or None
        out_data = self.data.transpose(*axes) if axes else self.data.T
        if axes:
            inverse = np.argsort(axes)
        else:
            inverse = None

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(
                    grad.transpose(*inverse) if inverse is not None else grad.T
                )

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        if not (self.requires_grad and _TAPE.recording):
            return Tensor(out_data)

        rows = _as_row_index(index)
        if rows is not None:
            # Integer fancy indexing along axis 0 — the embedding gather.
            # The forward lookup above already validated the index range.
            num_rows = self.data.shape[0]
            if (rows < 0).any():
                rows = np.where(rows < 0, rows + num_rows, rows)
            flat_rows = rows.reshape(-1)
            # A 2-d leaf is an embedding table whose grad feeds an optimizer.
            sparse_ok = self.data.ndim == 2 and self._backward is None

            def backward(grad: np.ndarray) -> None:
                vals = np.ascontiguousarray(grad).reshape(flat_rows.size, -1)
                if sparse_ok:
                    self._accumulate(SparseGrad(self.shape, flat_rows, vals))
                    return
                # Dense scatter via the coalescing kernel: bitwise identical
                # to np.add.at on zeros, without its per-element cost.
                full = np.zeros_like(self.data)
                unique, summed = coalesce_rows(flat_rows, vals, num_rows)
                full.reshape(num_rows, -1)[unique] = summed
                self._accumulate(full, owned=True)

            return Tensor._make(out_data, (self,), backward)

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full, owned=True)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy(), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Maximum along ``axis``; gradient flows to the (first) argmax."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad if keepdims else np.expand_dims(grad, axis=axis)
            expanded = out_data if keepdims else np.expand_dims(out_data, axis=axis)
            mask = self.data == expanded
            # Split ties evenly so the gradient check stays symmetric.
            mask = mask / mask.sum(axis=axis, keepdims=True)
            self._accumulate(mask * g, owned=True)

        return Tensor._make(out_data, (self,), backward)


def as_tensor(value) -> Tensor:
    """Coerce arrays/scalars to (constant) tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)
