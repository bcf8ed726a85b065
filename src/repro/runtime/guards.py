"""Numerical guards for gradient-driven training and for served scores.

The gradient functions duck-type parameters (``.raw_grad``/``.grad``) and
row-sparse gradients, so they never materialize a dense table.

* **Loss watching** — :class:`DivergenceDetector` observes the loss series
  and raises :class:`~repro.core.exceptions.TrainingDivergedError` once
  the run is beyond saving, instead of letting it burn epochs on NaNs.
* **Score checks** — :func:`validate_scores` judges one served score
  vector without raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.exceptions import TrainingDivergedError

__all__ = [
    "raw_grad",
    "grad_norm",
    "validate_scores",
    "ScoreReport",
    "DivergenceDetector",
]


def raw_grad(p):
    """The gradient in raw form: dense array, sparse rows, or ``None``.

    Prefers ``.raw_grad`` (autograd tensors, which may hold a sparse row
    gradient) over ``.grad`` so guards never force densification.
    """
    return p.raw_grad if hasattr(p, "raw_grad") else p.grad


def grad_norm(params) -> float:
    """Global L2 norm over all gradients (params without grads contribute 0).

    A sparse gradient counts its coalesced rows (duplicate rows summed
    first), so the norm matches the dense equivalent's.
    """
    total = 0.0
    for p in params:
        g = raw_grad(p)
        if g is not None:
            entries = g if isinstance(g, np.ndarray) else g.coalesce().vals
            total += float(np.sum(entries * entries))
    return math.sqrt(total)


@dataclass(frozen=True)
class ScoreReport:
    """Structured verdict on one ``score_all`` output vector.

    ``ok`` is true iff the array is 1-d with the expected length and every
    entry is finite.  The counts let callers distinguish a model that
    produced a few NaNs from one that returned garbage wholesale.
    ``num_scored`` is the vector length actually validated: ``None`` for a
    full-catalog vector, the candidate count for a candidate-subset
    validation (the ANN serving rung).  ``increasing`` passes on what an
    ok candidate-subset check found on the way: the ids were strictly
    increasing (so a caller can binary-search them without checking
    again).  It takes no part in report equality.
    """

    ok: bool
    expected_items: int
    actual_shape: tuple[int, ...]
    num_nan: int = 0
    num_inf: int = 0
    reason: str = ""
    num_scored: int | None = None
    increasing: bool = field(default=False, compare=False, repr=False)

    def describe(self) -> str:
        if not self.ok:
            return self.reason
        if self.num_scored is not None:
            return (
                f"ok ({self.num_scored} finite candidate scores over "
                f"{self.expected_items} items)"
            )
        return f"ok ({self.expected_items} finite scores)"


#: ``dtype.kind`` codes of ``np.integer`` and ``np.number`` — the same
#: verdicts as ``np.issubdtype`` without its cost.  ``np.timedelta64``
#: subclasses ``np.signedinteger`` (kind ``m``); ``np.bool_`` is neither.
_INTEGER_KINDS = "ium"
_NUMBER_KINDS = "iufcm"


def validate_scores(scores, num_items: int, expected_indices=None) -> ScoreReport:
    """Check a ``score_all`` output: 1-d, ``num_items`` long, all finite.

    With ``expected_indices`` the check switches to *candidate-subset*
    mode (the ANN retrieval rung scores only a candidate set, not the
    full catalog): ``scores`` must be 1-d of exactly that length and all
    finite, and the indices themselves must be unique integers inside
    ``[0, num_items)`` — so a short vector paired with its index set is a
    valid partial scoring, while a short vector alone still reads as
    corruption.

    Strictly increasing indices — what :meth:`IvfIndex.search
    <repro.retrieval.ivf.IvfIndex.search>` returns — are proven distinct
    by one vectorised comparison, their ends giving the range; any other
    order pays one sort.  The verdict is the same either way: the order
    only decides how fast it is reached.

    Never raises — returns a :class:`ScoreReport` so both the serving
    boundary and the hot-swap canary probe can decide policy themselves.
    """
    arr = np.asarray(scores)
    shape = tuple(int(s) for s in arr.shape)
    if expected_indices is not None:
        idx = np.asarray(expected_indices)
        if idx.ndim != 1 or idx.size < 1:
            return ScoreReport(
                ok=False, expected_items=num_items, actual_shape=shape,
                reason=f"expected a non-empty 1-d candidate set, got shape "
                f"{tuple(int(s) for s in idx.shape)}",
            )
        if idx.dtype.kind not in _INTEGER_KINDS:
            return ScoreReport(
                ok=False, expected_items=num_items, actual_shape=shape,
                reason=f"candidate indices must be integers, got dtype {idx.dtype}",
            )
        increasing = bool((idx[1:] > idx[:-1]).all())
        if increasing:
            ordered, distinct = idx, True
        else:
            ordered = np.sort(idx)
            distinct = not (ordered[1:] == ordered[:-1]).any()
        lo, hi = int(ordered[0]), int(ordered[-1])
        if lo < 0 or hi >= num_items:
            return ScoreReport(
                ok=False, expected_items=num_items, actual_shape=shape,
                reason=f"candidate indices out of range for {num_items} items "
                f"(min {lo}, max {hi})",
            )
        if not distinct:
            return ScoreReport(
                ok=False, expected_items=num_items, actual_shape=shape,
                reason="candidate indices contain duplicates",
            )
        expected_shape = (int(idx.size),)
    else:
        expected_shape, increasing = (num_items,), False
    if arr.ndim != 1 or shape != expected_shape:
        return ScoreReport(
            ok=False, expected_items=num_items, actual_shape=shape,
            reason=f"expected shape {expected_shape}, got {shape}",
        )
    if arr.dtype.kind not in _NUMBER_KINDS:
        return ScoreReport(
            ok=False, expected_items=num_items, actual_shape=shape,
            reason=f"expected numeric scores, got dtype {arr.dtype}",
        )
    finite = np.isfinite(arr)
    if not finite.all():
        num_nan = int(np.isnan(arr).sum())
        num_inf = int(np.isinf(arr).sum())
        return ScoreReport(
            ok=False, expected_items=num_items, actual_shape=shape,
            num_nan=num_nan, num_inf=num_inf,
            reason=f"non-finite scores: {num_nan} NaN, {num_inf} Inf",
        )
    return ScoreReport(
        ok=True, expected_items=num_items, actual_shape=shape,
        num_scored=None if expected_indices is None else int(arr.size),
        increasing=increasing,
    )


#: Consecutive bad losses before :class:`DivergenceDetector` raises.
PATIENCE = 5
#: A finite loss is bad above this multiple of the best loss so far...
GROWTH_FACTOR = 10.0
#: ...where the best loss counts as at least this much (no trips near zero).
FLOOR = 1e-3


class DivergenceDetector:
    """Watches a loss series and raises once training has diverged.

    An update is *bad* when the loss is non-finite, or when it exceeds
    :data:`GROWTH_FACTOR` times the best finite loss seen so far (with
    :data:`FLOOR` guarding against spurious trips when the best loss is
    near zero).  :data:`PATIENCE` consecutive bad updates raise
    :class:`~repro.core.exceptions.TrainingDivergedError`; any good update
    resets the streak.

    Use as a passthrough: ``loss = detector.update(loss)``.
    """

    def __init__(self) -> None:
        self.best: float | None = None
        self.bad_streak = 0
        self.num_updates = 0

    def _is_bad(self, loss: float) -> bool:
        if not math.isfinite(loss):
            return True
        if self.best is None:
            return False
        return loss > GROWTH_FACTOR * max(abs(self.best), FLOOR)

    def update(self, loss: float) -> float:
        """Observe one loss value; raises when patience is exhausted."""
        loss = float(loss)
        self.num_updates += 1
        if self._is_bad(loss):
            self.bad_streak += 1
            if self.bad_streak >= PATIENCE:
                raise TrainingDivergedError(
                    f"loss diverged: {self.bad_streak} consecutive bad updates "
                    f"(last loss {loss!r}, best {self.best!r})"
                )
        else:
            self.bad_streak = 0
            if self.best is None or loss < self.best:
                self.best = loss
        return loss
