"""Unfused forms of the autograd fast paths, kept as oracles.

Each function here is the composition or loop a fast path in
:mod:`repro.autograd` replaced, verbatim:

* :func:`lstm_step_reference` — ``nn.LSTMCell`` as a chain of tape ops
  (concat, four ``Linear`` gates, sigmoid/tanh, products) followed by
  KPRN's per-row step mask ``h_next * gate + h * (1 - gate)``;
* :func:`coalesce_rows_reference` — the per-column ``np.bincount`` loop;
* :func:`sparse_adam_rows_reference` — the lazy Adam row update that
  gathers ``m``, ``v`` and ``p`` three times.

The tests assert the fast paths bitwise against them.  They live beside
the tests because nothing else calls them.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor

__all__ = [
    "lstm_step_reference",
    "coalesce_rows_reference",
    "sparse_adam_rows_reference",
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
