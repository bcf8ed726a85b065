"""Triple storage for knowledge graphs.

A KG edge is a fact ``(head entity, relation, tail entity)`` (Section 3 of
the survey).  :class:`TripleStore` keeps all facts in three parallel integer
arrays with CSR-style adjacency indexes by head, tail, and relation — an
offset array plus a permutation of fact indices, built once via a stable
argsort — providing the O(1) neighborhood access that path enumeration,
ripple sets, and GNN sampling all build on.

Fact membership is answered from a *packed key* array: every fact is encoded
as the single int64 ``(h * num_relations + r) * num_entities + t``.  Because
the facts are stored in lexicographic order, the key array is sorted, so
:meth:`TripleStore.contains_batch` resolves a whole batch of membership
queries with one ``np.searchsorted`` instead of per-tuple hashing.  See
``docs/performance.md`` for the layout and the benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import GraphError

__all__ = ["TripleStore"]


def _csr_index(keys: np.ndarray, domain: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency over ``keys``: ``(order, offsets)``.

    ``order[offsets[k] : offsets[k + 1]]`` lists the positions holding key
    ``k``, in ascending position order (stable sort).
    """
    order = np.argsort(keys, kind="stable").astype(np.int64, copy=False)
    counts = np.bincount(keys, minlength=domain)
    offsets = np.zeros(domain + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return order, offsets


class TripleStore:
    """Immutable set of ``(head, relation, tail)`` facts.

    Parameters
    ----------
    heads, relations, tails:
        Parallel 1-d integer arrays.  Duplicate facts are dropped.
    num_entities, num_relations:
        Sizes of the id spaces; ids must lie in range.
    """

    def __init__(
        self,
        heads: np.ndarray,
        relations: np.ndarray,
        tails: np.ndarray,
        num_entities: int,
        num_relations: int,
    ) -> None:
        heads = np.asarray(heads, dtype=np.int64)
        relations = np.asarray(relations, dtype=np.int64)
        tails = np.asarray(tails, dtype=np.int64)
        if not (heads.shape == relations.shape == tails.shape) or heads.ndim != 1:
            raise GraphError("heads/relations/tails must be parallel 1-d arrays")
        if num_entities <= 0 or num_relations <= 0:
            raise GraphError("num_entities and num_relations must be positive")
        if num_entities * num_relations * num_entities > np.iinfo(np.int64).max:
            raise GraphError("id space too large to pack fact keys into int64")
        for name, arr, bound in (
            ("entity", heads, num_entities),
            ("relation", relations, num_relations),
            ("entity", tails, num_entities),
        ):
            if arr.size and (arr.min() < 0 or arr.max() >= bound):
                raise GraphError(f"{name} id out of range")

        self.num_entities = int(num_entities)
        self.num_relations = int(num_relations)

        # Deduplicate facts while keeping a deterministic (sorted) order.
        # Packing before the unique keeps the sort single-key; unpacking the
        # sorted keys recovers the lexicographically ordered triple arrays.
        keys = (heads * self.num_relations + relations) * self.num_entities + tails
        keys = np.unique(keys)
        self._fact_keys = keys
        tails = keys % self.num_entities
        hr = keys // self.num_entities
        relations = hr % self.num_relations
        heads = hr // self.num_relations

        self.heads = heads
        self.relations = relations
        self.tails = tails

        self._head_order, self._head_offsets = _csr_index(heads, self.num_entities)
        __, self._tail_offsets = _csr_index(tails, self.num_entities)
        self._rel_order, self._rel_offsets = _csr_index(relations, self.num_relations)
        self._undirected: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    @classmethod
    def from_triples(
        cls,
        triples: "np.ndarray | list[tuple[int, int, int]]",
        num_entities: int,
        num_relations: int,
    ) -> "TripleStore":
        """Build from an ``(n, 3)`` array or list of ``(h, r, t)`` tuples."""
        arr = np.asarray(triples, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 3)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise GraphError("triples must have shape (n, 3)")
        return cls(arr[:, 0], arr[:, 1], arr[:, 2], num_entities, num_relations)

    # ------------------------------------------------------------------ #
    @property
    def num_triples(self) -> int:
        return int(self.heads.size)

    def __len__(self) -> int:
        return self.num_triples

    def __contains__(self, fact: tuple[int, int, int]) -> bool:
        h, r, t = (int(x) for x in fact)
        return bool(self.contains_batch([h], [r], [t])[0])

    def contains_batch(
        self,
        heads: np.ndarray,
        relations: np.ndarray,
        tails: np.ndarray,
    ) -> np.ndarray:
        """Boolean mask: which ``(h, r, t)`` triples are facts in the store.

        One ``np.searchsorted`` over the packed key array for the whole
        batch; out-of-range ids are reported as absent rather than raising.
        """
        h = np.asarray(heads, dtype=np.int64)
        r = np.asarray(relations, dtype=np.int64)
        t = np.asarray(tails, dtype=np.int64)
        valid = (
            (h >= 0)
            & (h < self.num_entities)
            & (r >= 0)
            & (r < self.num_relations)
            & (t >= 0)
            & (t < self.num_entities)
        )
        if self._fact_keys.size == 0:
            return np.zeros(valid.shape, dtype=bool)
        keys = (h * self.num_relations + r) * self.num_entities + t
        pos = np.searchsorted(self._fact_keys, keys)
        pos_clipped = np.minimum(pos, self._fact_keys.size - 1)
        return valid & (self._fact_keys[pos_clipped] == keys) & (
            pos < self._fact_keys.size
        )

    def triples(self) -> np.ndarray:
        """All facts as an ``(n, 3)`` array (copy)."""
        return np.stack([self.heads, self.relations, self.tails], axis=1)

    # ------------------------------------------------------------------ #
    # neighborhood access
    # ------------------------------------------------------------------ #
    def outgoing(self, entity: int) -> np.ndarray:
        """Indices of facts with ``head == entity``."""
        e = int(entity)
        if not 0 <= e < self.num_entities:
            return np.empty(0, dtype=np.int64)
        return self._head_order[self._head_offsets[e] : self._head_offsets[e + 1]]

    def with_relation(self, relation: int) -> np.ndarray:
        """Indices of facts using ``relation``."""
        r = int(relation)
        if not 0 <= r < self.num_relations:
            return np.empty(0, dtype=np.int64)
        return self._rel_order[self._rel_offsets[r] : self._rel_offsets[r + 1]]

    def undirected_adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat undirected adjacency ``(offsets, relations, neighbors)``.

        ``relations[offsets[e] : offsets[e + 1]]`` / ``neighbors[...]`` list
        the ``(relation, neighbor)`` pairs of entity ``e``: outgoing edges
        first, then incoming, each in fact order (matching
        :meth:`neighbors`).  Built once on first use and cached.
        """
        if self._undirected is None:
            sources = np.concatenate([self.heads, self.tails])
            targets = np.concatenate([self.tails, self.heads])
            rels = np.concatenate([self.relations, self.relations])
            order, offsets = _csr_index(sources, self.num_entities)
            self._undirected = (offsets, rels[order], targets[order])
        return self._undirected

    def neighbors(
        self, entity: int, undirected: bool = True
    ) -> list[tuple[int, int]]:
        """``(relation, neighbor)`` pairs reachable from ``entity``.

        With ``undirected=True`` incoming edges are traversed too, which is
        how the surveyed propagation models treat the KG.
        """
        if undirected:
            offsets, rels, nbrs = self.undirected_adjacency()
            e = int(entity)
            lo, hi = offsets[e], offsets[e + 1]
            return list(zip(rels[lo:hi].tolist(), nbrs[lo:hi].tolist()))
        out = self.outgoing(entity)
        return list(zip(self.relations[out].tolist(), self.tails[out].tolist()))

    def neighbors_batch(
        self, entities: np.ndarray, undirected: bool = True
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`neighbors`: flat ``(offsets, relations, neighbors)``.

        ``relations[offsets[i] : offsets[i + 1]]`` / ``neighbors[...]`` hold
        the pairs of ``entities[i]`` in the same order as :meth:`neighbors`.
        One gather for the whole batch, no per-entity Python work.
        """
        entities = np.asarray(entities, dtype=np.int64).ravel()
        if undirected:
            src_offsets, rels, nbrs = self.undirected_adjacency()
            starts = src_offsets[entities]
            counts = src_offsets[entities + 1] - starts
        else:
            starts = self._head_offsets[entities]
            counts = self._head_offsets[entities + 1] - starts
        offsets = np.zeros(entities.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        flat = (
            np.arange(offsets[-1], dtype=np.int64)
            - np.repeat(offsets[:-1], counts)
            + np.repeat(starts, counts)
        )
        if undirected:
            return offsets, rels[flat], nbrs[flat]
        sel = self._head_order[flat]
        return offsets, self.relations[sel], self.tails[sel]

    def degree(self, entity: int) -> int:
        """Total (in + out) degree of ``entity``."""
        return int(self.degree_batch(np.asarray([entity], dtype=np.int64))[0])

    def degree_batch(self, entities: np.ndarray) -> np.ndarray:
        """Total (in + out) degree for each entity in ``entities``."""
        e = np.asarray(entities, dtype=np.int64)
        out = self._head_offsets[e + 1] - self._head_offsets[e]
        inc = self._tail_offsets[e + 1] - self._tail_offsets[e]
        return out + inc

    # ------------------------------------------------------------------ #
    # negative sampling (KGE training)
    # ------------------------------------------------------------------ #
    def corrupt_fallback(self, h: int, r: int, t: int) -> tuple[int, int, int]:
        """Deterministic corruption of ``(h, r, t)``: the first candidate
        tail (then head) whose triple is not a fact in the store.

        Used when random resampling exhausts ``max_tries``; unlike a blind
        ``(t + 1) % num_entities`` it can never return an existing fact.
        """
        # Tails for (h, r, *) occupy a contiguous key range; the first gap in
        # the present-tail sequence is the smallest free tail.
        base = (h * self.num_relations + r) * self.num_entities
        lo = np.searchsorted(self._fact_keys, base)
        hi = np.searchsorted(self._fact_keys, base + self.num_entities)
        present = self._fact_keys[lo:hi] - base
        gaps = np.flatnonzero(present != np.arange(present.size))
        if gaps.size:
            return (h, r, int(gaps[0]))
        if present.size < self.num_entities:
            return (h, r, int(present.size))
        heads_all = np.arange(self.num_entities, dtype=np.int64)
        free = np.flatnonzero(
            ~self.contains_batch(
                heads_all,
                np.full(self.num_entities, r, dtype=np.int64),
                np.full(self.num_entities, t, dtype=np.int64),
            )
        )
        if free.size:
            return (int(free[0]), r, t)
        raise GraphError(
            f"every head/tail corruption of ({h}, {r}, {t}) is itself a fact"
        )
