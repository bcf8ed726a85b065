"""First-order optimization of autograd parameters: :class:`Adam`.

Every model trains with Adam.  The contract: construct with the parameter
list, call :meth:`step` after gradients were produced by ``backward``, then
:meth:`zero_grad`.  ``weight_decay`` applies decoupled L2 shrinkage.

Sparse row gradients
--------------------
Embedding lookups produce :class:`~repro.autograd.sparse.SparseGrad`
gradients (row indices + rows).  Adam applies *lazy row-wise updates* to
such parameters: only the rows touched by the batch are read, updated,
and written, so the per-step cost is O(batch * dim) instead of
O(table * dim).  The first/second moment estimates of untouched rows are
not decayed, matching the standard sparse-Adam behavior in mainstream
frameworks; the bias-correction step counter still advances globally, and
decoupled ``weight_decay`` shrinks only the touched rows (lazy decay).

A dense gradient — including a sparse one densified by reading
``p.grad`` before :meth:`step` — takes the dense branch: standard Adam
over the whole table, fed the same sums bit for bit (the coalescing
kernel matches ``np.add.at`` summation order exactly).  The optimizer state layout is the
same for both branches, so ``state_dict``/checkpoints are interchangeable
and resume stays bitwise-reproducible either way.

The optimizer applies every gradient as it finds it, NaN included: the
training loop's runtime (:mod:`repro.runtime`, ``docs/robustness.md``)
watches the loss with a divergence detector, and the checkpointer refuses
to save non-finite parameters, so a poisoned run stops with
:class:`~repro.core.exceptions.TrainingDivergedError` and resumes from its
last finite snapshot.  :meth:`state_dict`/:meth:`load_state_dict` let
:mod:`repro.runtime.checkpoint` snapshot and resume a run exactly.
"""

from __future__ import annotations

import math

import numpy as np

from repro.telemetry.base import get_active

from .sparse import SparseGrad
from .tensor import Tensor

__all__ = ["Optimizer", "Adam"]


class Optimizer:
    """Base optimizer holding the parameter list and its settings."""

    def __init__(
        self,
        params: list[Tensor],
        lr: float,
        weight_decay: float = 0.0,
    ) -> None:
        # NaN compares false both ways, so each check is written to pass only
        # on a finite value inside the range.
        if not (math.isfinite(lr) and lr > 0):
            raise ValueError(f"learning rate must be positive and finite, got {lr}")
        if not (math.isfinite(weight_decay) and weight_decay >= 0):
            raise ValueError(
                f"weight_decay must be non-negative and finite, got {weight_decay}"
            )
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Apply one update from the parameters' current gradients.

        Reports to the *active* telemetry when one is installed (an
        ``optim/step`` span plus sparse-vs-dense update counters); the
        disabled path is a single attribute check.
        """
        tel = get_active()
        if not tel.enabled:
            self._apply()
            return
        span = tel.begin("optim/step", optimizer=type(self).__name__)
        try:
            self._apply()
        except Exception as exc:
            tel.end(span, error=type(exc).__name__)
            raise
        self._count_update_paths(tel)
        tel.end(span)

    def _count_update_paths(self, tel) -> None:
        """Tally which parameters took the sparse lazy path this step."""
        sparse_params = sparse_rows = dense_params = 0
        for p in self.params:
            g = p.raw_grad
            if g is None:
                continue
            # Mirrors _sparse_grad's routing, so the counters reflect the
            # path actually taken.
            if isinstance(g, SparseGrad):
                sparse_params += 1
                sparse_rows += int(g.rows.size)
            else:
                dense_params += 1
        if sparse_params:
            tel.counter("optim.sparse_params").inc(sparse_params)
            tel.counter("optim.sparse_rows").inc(sparse_rows)
        if dense_params:
            tel.counter("optim.dense_params").inc(dense_params)

    def _apply(self) -> None:
        raise NotImplementedError

    def _sparse_grad(self, p: Tensor) -> SparseGrad | None:
        """``p``'s coalesced sparse gradient, or ``None`` on the dense path."""
        g = p.raw_grad
        if isinstance(g, SparseGrad):
            return g.coalesce()
        return None

    def _decay(self, p: Tensor) -> None:
        if self.weight_decay:
            p.data *= 1.0 - self.lr * self.weight_decay

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _copy_arrays(dst: list[np.ndarray], src: list[np.ndarray], name: str) -> None:
        if len(dst) != len(src):
            raise ValueError(
                f"optimizer state {name!r} has {len(src)} arrays, expected {len(dst)}"
            )
        for d, s in zip(dst, src):
            if d.shape != s.shape:
                raise ValueError(
                    f"optimizer state {name!r} shape mismatch: {s.shape} vs {d.shape}"
                )
            np.copyto(d, s)


def _check_eps(eps: float) -> float:
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    return eps


class Adam(Optimizer):
    """Adam with bias-corrected first/second moment estimates.

    Sparse gradients get *lazy* row updates: see the module docstring for
    the exact semantics (moments of untouched rows are not decayed).
    """

    def __init__(
        self,
        params,
        lr: float = 0.005,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr, weight_decay)
        for beta in betas:
            if not 0.0 <= beta < 1.0:
                raise ValueError(f"betas must lie in [0, 1), got {tuple(betas)}")
        self.beta1, self.beta2 = betas
        self.eps = _check_eps(eps)
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def _apply(self) -> None:
        self._t += 1
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.raw_grad is None:
                continue
            sparse = self._sparse_grad(p)
            if sparse is not None:
                rows, vals = sparse.rows, sparse.vals
                # Same multiply-then-add sequence as the dense branch, so a
                # first step from zero state matches it bitwise.  Rows are
                # unique, so each table is gathered and scattered once.
                m_rows = self.beta1 * m[rows] + (1.0 - self.beta1) * vals
                v_rows = self.beta2 * v[rows] + (1.0 - self.beta2) * vals**2
                m[rows] = m_rows
                v[rows] = v_rows
                p_rows = p.data[rows]
                if self.weight_decay:
                    p_rows *= 1.0 - self.lr * self.weight_decay
                p_rows -= self.lr * (m_rows / bc1) / (np.sqrt(v_rows / bc2) + self.eps)
                p.data[rows] = p_rows
                continue
            grad = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            self._decay(p)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def state_dict(self) -> dict:
        """Mutable optimizer state as scalars and lists of arrays."""
        return {
            "t": self._t,
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def load_state_dict(self, state: dict) -> None:
        """Inverse of :meth:`state_dict` (copies arrays in place)."""
        self._t = int(state["t"])
        self._copy_arrays(self._m, state["m"], "m")
        self._copy_arrays(self._v, state["v"], "v")
