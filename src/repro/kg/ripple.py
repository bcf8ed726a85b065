"""User ripple sets (Section 3 definitions).

RippleNet-style models propagate user preference along the KG starting from
the user's historical items.  The survey's *user ripple set* ``S_u^k`` holds
the triples whose heads lie in ``E_u^{k-1}``, the (k-1)-hop *relevant
entities* of user ``u``.  :func:`user_ripple_sets` computes those sets
exactly, or as sampled fixed-size versions for mini-batch training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import GraphError
from repro.core.rng import ensure_rng

from .graph import KnowledgeGraph

__all__ = ["RippleSet", "user_ripple_sets"]


@dataclass(frozen=True)
class RippleSet:
    """Triples of one hop: parallel head/relation/tail arrays."""

    heads: np.ndarray
    relations: np.ndarray
    tails: np.ndarray

    def __post_init__(self) -> None:
        if not (self.heads.shape == self.relations.shape == self.tails.shape):
            raise GraphError("ripple set arrays must be parallel")

    @property
    def size(self) -> int:
        return int(self.heads.size)

    def __len__(self) -> int:
        return self.size


def _hop_triples(kg: KnowledgeGraph, frontier: np.ndarray) -> RippleSet:
    """All facts whose head lies in ``frontier``."""
    indices: list[np.ndarray] = [kg.store.outgoing(int(e)) for e in frontier]
    if indices:
        idx = np.concatenate(indices).astype(np.int64)
    else:
        idx = np.empty(0, dtype=np.int64)
    return RippleSet(
        kg.store.heads[idx], kg.store.relations[idx], kg.store.tails[idx]
    )


def _sample(ripple: RippleSet, size: int, rng: np.random.Generator) -> RippleSet:
    if ripple.size == 0 or ripple.size == size:
        return ripple
    replace = ripple.size < size
    idx = rng.choice(ripple.size, size=size, replace=replace)
    return RippleSet(ripple.heads[idx], ripple.relations[idx], ripple.tails[idx])


def user_ripple_sets(
    kg: KnowledgeGraph,
    seed_entities: np.ndarray,
    hops: int,
    max_size: int | None = None,
    seed: int | np.random.Generator | None = None,
) -> list[RippleSet]:
    """``[S_u^1, ..., S_u^H]`` for a user whose history maps to ``seed_entities``.

    ``max_size`` caps each hop by sampling with replacement (RippleNet's
    fixed-size ripple sets).  Hops that find no facts fall back to the
    previous hop's triples, RippleNet's published fallback for sparse graphs;
    a user whose seeds have no outgoing facts at all yields empty hops.
    """
    if hops < 1:
        raise GraphError("hops must be >= 1")
    rng = ensure_rng(seed)
    sets: list[RippleSet] = []
    frontier = np.unique(np.asarray(seed_entities, dtype=np.int64))
    previous: RippleSet | None = None
    for __ in range(hops):
        hop = _hop_triples(kg, frontier)
        if hop.size == 0 and previous is not None:
            hop = previous
        if max_size is not None:
            hop = _sample(hop, max_size, rng)
        frontier = np.unique(hop.tails) if hop.size else frontier
        sets.append(hop)
        previous = hop
    return sets
