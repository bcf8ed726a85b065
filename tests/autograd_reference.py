"""Unfused forms of the autograd fast paths, kept as oracles.

Each function here is the composition or loop a fast path in
:mod:`repro.autograd` or in a model's training step replaced, verbatim:

* :func:`lstm_step_reference` — ``nn.LSTMCell`` as a chain of tape ops
  (concat, four ``Linear`` gates, sigmoid/tanh, products) followed by
  KPRN's per-row step mask ``h_next * gate + h * (1 - gate)``;
* :func:`attention_pool_reference` — KGCN's user-relation attention pool
  as a chain of tape ops (``softmax(u . r)`` times the neighbours, summed);
* :func:`cross_compress_reference` — MKR's cross & compress unit through
  the ``(B, d, d)`` cross matrix ``C = v e^T``;
* :func:`coalesce_rows_reference` — the per-column ``np.bincount`` loop;
* :func:`sparse_adam_rows_reference` — the lazy Adam row update that
  gathers ``m``, ``v`` and ``p`` three times;
* :func:`dense_lookup_reference` — ``Tensor.__getitem__`` before sparse
  lookup gradients: every gather scatters into a dense zeros table with
  ``np.add.at``;
* :func:`densified` — an optimizer that reads every ``p.grad`` before
  stepping, which densifies sparse gradients in place and so sends each
  parameter down the optimizer's dense branch (the pre-sparse update).

The tests assert the fast paths against them.  They live beside the
tests because nothing else calls them.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor

__all__ = [
    "lstm_step_reference",
    "attention_pool_reference",
    "cross_compress_reference",
    "coalesce_rows_reference",
    "sparse_adam_rows_reference",
    "dense_lookup_reference",
    "densified",
]


def lstm_step_reference(cell, x: Tensor, state, mask=None):
    """One ``cell`` step through the unfused tape: ``(h_new, c_new)``."""
    h, c = state
    xh = ops.concat([x, h], axis=-1)
    i = ops.sigmoid(cell.w_i(xh))
    f = ops.sigmoid(cell.w_f(xh))
    o = ops.sigmoid(cell.w_o(xh))
    g = ops.tanh(cell.w_c(xh))
    c_next = f * c + i * g
    h_next = o * ops.tanh(c_next)
    if mask is None:
        return h_next, c_next
    gate = Tensor(mask)
    h_new = h_next * gate + h * (1.0 - gate)
    c_new = c_next * gate + c * (1.0 - gate)
    return h_new, c_new


def attention_pool_reference(u: Tensor, r: Tensor, nbr: Tensor, num_neighbors: int) -> Tensor:
    """``sum_s softmax_s(u . r_s) nbr_s`` through the tape: ``(B, W, d)``.

    ``u`` is ``(B, d)``; ``r`` is ``(B, W, S, d)``; ``nbr`` holds the same
    ``B * W * S`` neighbour vectors in any shape."""
    batch, width, dim = r.shape[0], r.shape[1], r.shape[3]
    logits = (u.reshape(batch, 1, 1, dim) * r).sum(axis=3)
    att = ops.softmax(logits, axis=2)
    nbr = nbr.reshape(batch, width, num_neighbors, dim)
    return (att.reshape(batch, width, num_neighbors, 1) * nbr).sum(axis=2)


def cross_compress_reference(unit, v: Tensor, e: Tensor) -> tuple[Tensor, Tensor]:
    """``unit(v, e)`` through the ``(B, d, d)`` cross matrix."""
    batch, dim = v.shape
    cross = v.reshape(batch, dim, 1) * e.reshape(batch, 1, dim)
    cross_t = cross.transpose(0, 2, 1)
    v_next = cross @ unit.w_vv + cross_t @ unit.w_ev + unit.b_v
    e_next = cross @ unit.w_ve + cross_t @ unit.w_ee + unit.b_e
    return v_next, e_next


def coalesce_rows_reference(
    rows: np.ndarray, vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sum duplicate rows with one ``np.bincount`` pass per column."""
    unique, inverse = np.unique(rows, return_inverse=True)
    if unique.size == rows.size:
        order = np.argsort(rows, kind="stable")
        return unique, vals[order]
    summed = np.empty((unique.size, vals.shape[1]), dtype=vals.dtype)
    for col in range(vals.shape[1]):
        summed[:, col] = np.bincount(
            inverse, weights=vals[:, col], minlength=unique.size
        )
    return unique, summed


def sparse_adam_rows_reference(
    p: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    rows: np.ndarray,
    vals: np.ndarray,
    *,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
    weight_decay: float,
    bc1: float,
    bc2: float,
) -> None:
    """Lazy Adam on the unique ``rows`` of ``p`` in place (old formula)."""
    m[rows] = beta1 * m[rows] + (1.0 - beta1) * vals
    v[rows] = beta2 * v[rows] + (1.0 - beta2) * vals**2
    if weight_decay:
        p[rows] *= 1.0 - lr * weight_decay
    p[rows] -= lr * (m[rows] / bc1) / (np.sqrt(v[rows] / bc2) + eps)


def dense_lookup_reference(self: Tensor, index) -> Tensor:
    """``self[index]`` whose backward is a dense ``np.add.at`` scatter.

    Patch it in as ``Tensor.__getitem__`` to train on the pre-sparse
    lookup path."""
    out_data = self.data[index]

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(self.data)
        np.add.at(full, index, grad)
        self._accumulate(full, owned=True)

    return Tensor._make(out_data, (self,), backward)


def densified(optim_cls):
    """``optim_cls`` reading every ``p.grad`` before each step.

    The read replaces a :class:`~repro.autograd.sparse.SparseGrad` by its
    dense form in place, so every parameter takes the dense branch."""

    class Densified(optim_cls):
        def step(self) -> None:
            for p in self.params:
                p.grad
            super().step()

    Densified.__name__ = Densified.__qualname__ = f"Densified{optim_cls.__name__}"
    return Densified
