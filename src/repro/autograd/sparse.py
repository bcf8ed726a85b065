"""Sparse row gradients for embedding-style parameters.

Every embedding lookup is a gather of a few hundred rows out of a table
with up to millions of rows.  Its gradient is therefore *row sparse*: only
the gathered rows carry signal.  A dense gradient would be a
``(num_rows, dim)`` zeros array with the batch ``np.add.at``-scattered
into it, and an optimizer step over it would touch the whole table —
O(E*d) work per mini-batch regardless of batch size.

:class:`SparseGrad` holds only the signal: a pair of ``rows`` (int64
indices into axis 0) and ``vals`` (the corresponding gradient rows).  Duplicate rows are allowed and are summed lazily by
:meth:`SparseGrad.coalesce`; consumers that need the dense form call
:meth:`SparseGrad.to_dense`.

Bitwise compatibility
---------------------
Coalescing sums duplicates with ``np.bincount``: one pass over flattened
``(row, column)`` bins for small tables or small batches, one pass per
column for large ones.  ``bincount`` accumulates weights sequentially in
occurrence order — the exact summation ``np.add.at`` performs — so a densified
:class:`SparseGrad` is *bitwise identical* to that dense scatter.  (``np.add.reduceat`` is faster still but uses pairwise summation
and breaks bitwise reproducibility; the equivalence tests pin this
choice.)

When a parameter is gathered several times in one graph (e.g. a KGE
entity table looked up for heads, tails, and negatives), the dense
gradient is each lookup's scatter summed into the table *lookup by
lookup*.  :meth:`SparseGrad.merge` therefore records the segment boundary,
and :meth:`SparseGrad.to_dense`/:meth:`SparseGrad.add_into` replay the
segments in accumulation order — coalesce within a segment, then add
segment sums — reproducing that float grouping exactly.
:meth:`SparseGrad.coalesce` collapses the segments (sparse consumers only
need the total per row).
"""

from __future__ import annotations

import numpy as np

__all__ = ["SparseGrad", "coalesce_rows"]


#: Largest number of ``(row, column)`` bins summed by one flattened
#: ``np.bincount``: the table's when it is small enough, else the batch's.
#: The bin array is then at most 128 KiB; above that, allocating and
#: faulting in a fresh bin array cost more than the per-column calls saved
#: (``docs/performance.md``, "Training critical path" and "Training pass 2").
_FLAT_COALESCE_LIMIT = 1 << 14


def coalesce_rows(
    rows: np.ndarray, vals: np.ndarray, num_rows: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Sum duplicate rows: ``(unique_rows_ascending, per-row sums)``.

    ``vals`` must be 2-d with ``vals.shape[0] == rows.size``; ``num_rows``,
    when given, bounds ``rows`` (the table size).  Summation order within a
    duplicate group is occurrence order (see module docstring), matching
    ``np.add.at`` bitwise.  A table of at most ``_FLAT_COALESCE_LIMIT``
    bins is summed with one ``np.bincount`` over its own flattened
    ``(row, column)`` bins, and its present rows are read off a row
    ``bincount`` instead of sorting with ``np.unique``.  Otherwise small
    inputs are summed over flattened bins of their unique rows, larger ones
    with one ``np.bincount`` per column.  Each bin adds its values in
    occurrence order on every path, so all three agree bitwise.
    """
    dim = vals.shape[1]
    if num_rows is not None and num_rows * dim <= _FLAT_COALESCE_LIMIT:
        unique = np.flatnonzero(np.bincount(rows, minlength=num_rows))
        if unique.size == rows.size:
            return unique, vals[np.argsort(rows, kind="stable")]
        bins = (rows[:, None] * dim + np.arange(dim)).ravel()
        summed = np.bincount(bins, weights=vals.ravel(), minlength=num_rows * dim)
        return unique, summed.reshape(num_rows, dim)[unique].astype(vals.dtype, copy=False)
    unique, inverse = np.unique(rows, return_inverse=True)
    if unique.size == rows.size:
        # No duplicates: reorder to ascending rows, skip the bincount passes.
        order = np.argsort(rows, kind="stable")
        return unique, vals[order]
    if vals.size <= _FLAT_COALESCE_LIMIT:
        bins = (inverse[:, None] * dim + np.arange(dim)).ravel()
        summed = np.bincount(bins, weights=vals.ravel(), minlength=unique.size * dim)
        return unique, summed.reshape(unique.size, dim).astype(vals.dtype, copy=False)
    summed = np.empty((unique.size, dim), dtype=vals.dtype)
    for col in range(dim):
        summed[:, col] = np.bincount(
            inverse, weights=vals[:, col], minlength=unique.size
        )
    return unique, summed


class SparseGrad:
    """Row-sparse gradient of a 2-d array: ``dense[rows] += vals``.

    Parameters
    ----------
    shape:
        Full dense shape ``(num_rows, dim)`` of the gradient.
    rows:
        ``(nnz,)`` int64 row indices (duplicates allowed, must be
        non-negative — producers normalize negative indices).
    vals:
        ``(nnz, dim)`` float64 gradient rows aligned with ``rows``.
    segments:
        Lengths of the independently-produced scatters concatenated into
        ``rows``/``vals`` (in accumulation order); ``None`` means a single
        segment.  Only :meth:`merge` creates multi-segment grads.
    """

    __slots__ = ("shape", "rows", "vals", "_coalesced", "_segments")

    def __init__(
        self,
        shape: tuple[int, ...],
        rows: np.ndarray,
        vals: np.ndarray,
        segments: tuple[int, ...] | None = None,
    ) -> None:
        self.shape = tuple(shape)
        self.rows = rows
        self.vals = vals
        self._coalesced = False
        self._segments = segments

    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        """Number of stored rows (after coalescing: number of unique rows)."""
        return int(self.rows.size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = "coalesced" if self._coalesced else "raw"
        return f"SparseGrad(shape={self.shape}, nnz={self.nnz}, {tag})"

    # ------------------------------------------------------------------ #
    def coalesce(self) -> "SparseGrad":
        """Sum duplicate rows in place (idempotent); returns ``self``.

        Replaces ``rows``/``vals`` with fresh owned arrays, so any view a
        producer handed in is left untouched.
        """
        if not self._coalesced:
            self.rows, self.vals = coalesce_rows(self.rows, self.vals, self.shape[0])
            self._coalesced = True
            self._segments = None
        return self

    def merge(self, other: "SparseGrad") -> "SparseGrad":
        """Concatenated (uncoalesced) union, preserving accumulation order.

        The boundary between the operands is recorded so densification can
        replay the segment-by-segment summation (see module docstring)."""
        if other.shape != self.shape:
            raise ValueError(
                f"cannot merge sparse grads of shapes {self.shape} and {other.shape}"
            )
        segments = (self._segments or (self.rows.size,)) + (
            other._segments or (other.rows.size,)
        )
        return SparseGrad(
            self.shape,
            np.concatenate([self.rows, other.rows]),
            np.concatenate([self.vals, other.vals]),
            segments=segments,
        )

    def _coalesced_segments(self):
        """Yield ``(unique_rows, summed_vals)`` per segment, in order."""
        if self._coalesced:
            yield self.rows, self.vals
            return
        start = 0
        for length in self._segments or (self.rows.size,):
            yield coalesce_rows(
                self.rows[start : start + length],
                self.vals[start : start + length],
                self.shape[0],
            )
            start += length

    def to_dense(self) -> np.ndarray:
        """The full dense gradient (bitwise equal to the per-lookup
        ``np.add.at`` scatters summed in accumulation order)."""
        out = np.zeros(self.shape, dtype=self.vals.dtype)
        for rows, vals in self._coalesced_segments():
            out[rows] += vals  # rows are unique within a segment
        return out

    def add_into(self, dense: np.ndarray) -> np.ndarray:
        """Scatter-add into an existing dense array in place; returns it."""
        for rows, vals in self._coalesced_segments():
            dense[rows] += vals
        return dense
