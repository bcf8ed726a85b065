"""The `EmbeddingStore` interface and its in-memory default.

Every KGE model's big parameter tables (entity and relation embeddings)
sit behind an :class:`EmbeddingStore`.  Two implementations exist:

* :class:`DenseStore` — plain in-memory arrays, the default.  It is a
  pure pass-through: ``register`` keeps a reference to the *same* array
  object the model trains on, so training with a ``DenseStore`` is
  bitwise identical to training with no store at all (the seed path).
* :class:`~repro.store.mmap.MmapShardStore` — the durable, row-sharded,
  checksummed mmap-backed implementation (see ``docs/storage.md``).

The interface is deliberately small: a trainer *registers* its live
working arrays, *marks rows dirty* as optimizer steps touch them (the
row indices of a coalesced :class:`~repro.autograd.sparse.SparseGrad` are
exactly this wire format),
and *commits* — which for the dense store is a no-op and for the mmap
store persists only the dirtied shards under a new manifest generation.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.exceptions import StoreError

__all__ = ["EmbeddingStore", "DenseStore"]


class EmbeddingStore(abc.ABC):
    """Storage backend for named 2-d embedding tables.

    ``track_dirty`` tells trainers whether :meth:`mark_dirty` calls are
    worth making; the dense store advertises ``False`` so the hot loop
    pays one attribute check and nothing else.
    """

    #: Whether this store consumes :meth:`mark_dirty` row indices.
    track_dirty: bool = False
    #: Whether :meth:`commit` persists generations a checkpoint can pin.
    #: The checkpointer only delegates parameters to durable stores — a
    #: non-durable store cannot give back *snapshot-time* values.
    durable: bool = False

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def register(self, name: str, array: np.ndarray) -> np.ndarray:
        """Bind ``array`` as the live working buffer of table ``name``.

        If the store already holds ``name`` (e.g. it was opened from
        disk), the stored values are copied *into* ``array`` — the caller
        keeps training on its own buffer object.  Otherwise the array's
        current contents are adopted as the table's initial state.
        Returns ``array``.
        """

    @abc.abstractmethod
    def table(self, name: str):
        """Current values of ``name`` (a live array, or a sharded view)."""

    @abc.abstractmethod
    def table_names(self) -> tuple[str, ...]:
        """Registered/stored table names, sorted."""

    # ------------------------------------------------------------------ #
    def table_for_array(self, array: np.ndarray) -> str | None:
        """The table name whose live working buffer *is* ``array``, if any.

        Identity (not equality) — this is how the checkpointer decides
        which model parameters the store owns.
        """
        return None

    def mark_dirty(self, name: str, rows: np.ndarray | None = None) -> None:
        """Declare table rows changed (``None`` = every row).  No-op here."""

    def commit(self, tag: str = "") -> int:
        """Persist pending changes; returns the new generation (0 = none)."""
        return 0

    def generations(self) -> tuple[int, ...]:
        """Generations a checkpoint could restore from."""
        return (0,)

    def load_table(self, name: str, generation: int | None = None) -> np.ndarray:
        """Materialize table ``name`` at ``generation`` (default: current)."""
        raise StoreError(f"{type(self).__name__} does not persist generations")

    def close(self) -> None:
        """Release resources; further table access may fail."""


class DenseStore(EmbeddingStore):
    """In-memory pass-through store — the bitwise-compatible default."""

    track_dirty = False

    def __init__(self) -> None:
        self._tables: dict[str, np.ndarray] = {}

    def register(self, name: str, array: np.ndarray) -> np.ndarray:
        array = np.asarray(array)
        if array.ndim != 2:
            raise StoreError(f"table {name!r} must be 2-d, got {array.ndim}-d")
        existing = self._tables.get(name)
        if existing is not None and existing.shape != array.shape:
            raise StoreError(
                f"table {name!r} re-registered with shape {array.shape}, "
                f"store holds {existing.shape}"
            )
        self._tables[name] = array
        return array

    def table(self, name: str) -> np.ndarray:
        try:
            return self._tables[name]
        except KeyError:
            raise StoreError(f"unknown table {name!r}") from None

    def table_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._tables))

    def table_for_array(self, array: np.ndarray) -> str | None:
        for name, arr in self._tables.items():
            if arr is array:
                return name
        return None

    def load_table(self, name: str, generation: int | None = None) -> np.ndarray:
        if generation not in (None, 0):
            raise StoreError(
                f"DenseStore has no generation {generation}; it is in-memory only"
            )
        return self.table(name).copy()
