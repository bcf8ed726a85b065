"""Path extraction from a user to candidate items (RKGE/KPRN/EIUM/MCRec).

One randomized bounded DFS from the user's entity collects up to K paths to
*every* item simultaneously, so both training (specific pairs) and full
ranking (all items) reuse a single per-user traversal.  The search records
each path as an ``(entities, relations)`` pair of tuples; :class:`PathBank`
packs them into index arrays and rebuilds :class:`Path` objects on demand.
"""

from __future__ import annotations

import numpy as np

from repro.core.rng import ensure_rng
from repro.kg.graph import KnowledgeGraph
from repro.kg.metapath import Path

__all__ = ["paths_to_targets", "PathBank"]

#: One recorded path: its entity ids and the relation ids between them.
RawPath = tuple[tuple[int, ...], tuple[int, ...]]


def paths_to_targets(
    kg: KnowledgeGraph,
    source: int,
    targets: dict[int, int],
    max_length: int = 3,
    max_paths_per_target: int = 3,
    max_expansions: int = 8000,
    min_length: int = 2,
    seed: int | np.random.Generator | None = None,
) -> dict[int, list[RawPath]]:
    """Collect paths from ``source`` to each target entity.

    ``targets`` maps entity id -> anything (only keys are used); each path
    comes back as an ``(entities, relations)`` pair.  Traversal
    is undirected, simple (no entity revisits within a path), randomized in
    neighbor order, and stops after ``max_expansions`` node expansions.

    ``min_length=2`` (default) drops the trivial direct user->item edge:
    recording it would leak the training label into the path features —
    the model would learn "has an interact edge" instead of path semantics
    and collapse on held-out items (the standard KPRN/RKGE preprocessing).

    Children at ``max_length`` are never expanded, so they are not pushed:
    each one still costs one expansion, counted as a run.  A pushed leaf
    would sit on top of the stack and be popped before anything below it,
    drawing nothing from ``rng``, so the paths found, the ``rng.permutation``
    draws and the order of every expanded node are those of a DFS that
    pushes and pops the leaves one by one.
    """
    rng = ensure_rng(seed)
    found: dict[int, list[RawPath]] = {t: [] for t in targets}
    adjacency: dict[int, list[tuple[int, int]]] = {}
    stack: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = [
        (source, (source,), ())
    ]
    expansions = 0
    while stack and expansions < max_expansions:
        node, ent_path, rel_path = stack.pop()
        expansions += 1
        depth = len(rel_path) + 1  # the children's path length
        if depth > max_length:
            continue
        neighbors = adjacency.get(node)
        if neighbors is None:
            neighbors = adjacency[node] = kg.neighbors(node, undirected=True)
        order = rng.permutation(len(neighbors)).tolist()
        record = depth >= min_length
        if depth < max_length:
            for pos in order:
                relation, neighbor = neighbors[pos]
                if neighbor in ent_path:
                    continue
                new_ents = ent_path + (neighbor,)
                new_rels = rel_path + (relation,)
                if record:
                    bucket = found.get(neighbor)
                    if bucket is not None and len(bucket) < max_paths_per_target:
                        bucket.append((new_ents, new_rels))
                stack.append((neighbor, new_ents, new_rels))
            continue
        leaves = 0
        for pos in order:
            relation, neighbor = neighbors[pos]
            if neighbor in ent_path:
                continue
            leaves += 1
            if record:
                bucket = found.get(neighbor)
                if bucket is not None and len(bucket) < max_paths_per_target:
                    bucket.append((ent_path + (neighbor,), rel_path + (relation,)))
        expansions += leaves
    return found


class _PackedPaths:
    """One user's paths as one index table, grouped by item.

    Row ``p`` of ``table`` holds path ``p`` as ``width`` entity slots,
    ``width`` relation slots and its length (relation count): entity slots
    past the end hold 0 and relation slots hold the pad relation.  Item
    ``i``'s paths are rows ``offsets[i] : offsets[i + 1]``.
    """

    __slots__ = ("table", "offsets")

    def __init__(
        self,
        found: dict[int, list[RawPath]],
        item_entities: np.ndarray,
        width: int,
        pad_relation: int,
    ) -> None:
        rows: list[tuple[int, ...]] = []
        offsets = [0]
        ent_pad = [(0,) * (width - 1 - n) for n in range(width)]
        rel_pad = [(pad_relation,) * (width - n) for n in range(width)]
        for entity in item_entities.tolist():
            paths = found.get(entity, ())
            offsets.append(offsets[-1] + len(paths))
            for ents, rels in paths:
                n = len(rels)
                rows.append(ents + ent_pad[n] + rels + rel_pad[n] + (n,))
        self.offsets = offsets
        self.table = np.array(rows, dtype=np.int64).reshape(-1, 2 * width + 1)


class PathBank:
    """Per-user cache of user-to-item paths on a lifted dataset.

    A user's paths are searched on first use and kept packed
    (:class:`_PackedPaths`); :meth:`paths` rebuilds ``Path`` objects on
    demand and :meth:`gather` slices a batch's index arrays directly.  The
    pad relation is ``kg.num_relations``, one past the last relation id.
    """

    def __init__(
        self,
        lifted,
        max_length: int = 3,
        max_paths_per_item: int = 3,
        max_expansions: int = 8000,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        self.lifted = lifted
        self.max_length = max_length
        self.max_paths_per_item = max_paths_per_item
        self.max_expansions = max_expansions
        self._rng = ensure_rng(seed)
        self._packed: dict[int, _PackedPaths] = {}
        self._targets = {int(e): i for i, e in enumerate(lifted.item_entities)}

    def paths(self, user_id: int, item_id: int) -> list[Path]:
        """Paths user -> item (entity-level), searched once per user."""
        packed = self._user_paths(user_id)
        width = self.max_length + 1
        lo, hi = packed.offsets[item_id], packed.offsets[item_id + 1]
        out = []
        for row in packed.table[lo:hi].tolist():
            n = row[-1]
            out.append(Path(tuple(row[: n + 1]), tuple(row[width : width + n])))
        return out

    def gather(
        self, users: np.ndarray, items: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every path of every ``(users[r], items[r])`` pair, row by row.

        Returns ``(rows, entities, relations, lengths)``: path ``p`` belongs
        to pair ``rows[p]``; ``entities`` and ``relations`` have
        ``max_length + 1`` columns laid out as in :class:`_PackedPaths`.
        Within a pair the paths come in :meth:`paths` order.
        """
        counts, parts = [], []
        for u, v in zip(users.tolist(), items.tolist()):
            packed = self._user_paths(u)
            lo, hi = packed.offsets[v], packed.offsets[v + 1]
            counts.append(hi - lo)
            if hi > lo:
                parts.append(packed.table[lo:hi])
        width = self.max_length + 1
        table = (
            np.concatenate(parts) if parts else np.zeros((0, 2 * width + 1), dtype=np.int64)
        )
        rows = np.repeat(np.arange(len(counts)), counts)
        return rows, table[:, :width], table[:, width:-1], table[:, -1]

    def _user_paths(self, user_id: int) -> _PackedPaths:
        packed = self._packed.get(user_id)
        if packed is None:
            source = int(self.lifted.user_entities[user_id])
            found = paths_to_targets(
                self.lifted.kg,
                source,
                self._targets,
                max_length=self.max_length,
                max_paths_per_target=self.max_paths_per_item,
                max_expansions=self.max_expansions,
                seed=self._rng,
            )
            packed = self._packed[user_id] = _PackedPaths(
                found,
                self.lifted.item_entities,
                self.max_length + 1,
                self.lifted.kg.num_relations,
            )
        return packed
