"""The original randomized path DFS, kept as an oracle.

This is :func:`repro.models.path_based.pathsampling.paths_to_targets` as it
was before leaf children were counted as one run instead of being pushed
and popped one by one.  ``tests/test_path_search.py`` asserts that the
rewrite returns equal ``Path`` lists per target and leaves the generator in
the same state.  It lives beside the tests because nothing else calls it.
"""

from __future__ import annotations

import numpy as np

from repro.core.rng import ensure_rng
from repro.kg.graph import KnowledgeGraph
from repro.kg.metapath import Path

__all__ = ["paths_to_targets_reference"]


def paths_to_targets_reference(
    kg: KnowledgeGraph,
    source: int,
    targets: dict[int, int],
    max_length: int = 3,
    max_paths_per_target: int = 3,
    max_expansions: int = 8000,
    min_length: int = 2,
    seed: int | np.random.Generator | None = None,
) -> dict[int, list[Path]]:
    """Collect paths from ``source`` to each target entity.

    ``targets`` maps entity id -> anything (only keys are used).  Traversal
    is undirected, simple (no entity revisits within a path), randomized in
    neighbor order, and stops after ``max_expansions`` node expansions.

    ``min_length=2`` (default) drops the trivial direct user->item edge:
    recording it would leak the training label into the path features —
    the model would learn "has an interact edge" instead of path semantics
    and collapse on held-out items (the standard KPRN/RKGE preprocessing).
    """
    rng = ensure_rng(seed)
    found: dict[int, list[Path]] = {t: [] for t in targets}
    stack: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = [
        (source, (source,), ())
    ]
    expansions = 0
    while stack and expansions < max_expansions:
        node, ent_path, rel_path = stack.pop()
        expansions += 1
        if len(rel_path) >= max_length:
            continue
        neighbors = kg.neighbors(node, undirected=True)
        order = rng.permutation(len(neighbors))
        for pos in order:
            relation, neighbor = neighbors[pos]
            if neighbor in ent_path:
                continue
            new_ents = ent_path + (neighbor,)
            new_rels = rel_path + (relation,)
            bucket = found.get(neighbor)
            if (
                bucket is not None
                and len(bucket) < max_paths_per_target
                and len(new_rels) >= min_length
            ):
                bucket.append(Path(new_ents, new_rels))
            stack.append((neighbor, new_ents, new_rels))
    return found
