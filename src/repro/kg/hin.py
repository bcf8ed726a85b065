"""Heterogeneous information network schema utilities.

A HIN is a typed graph with entity-type mapping ``phi`` and link-type
mapping ``psi`` (Section 3).  :class:`NetworkSchema` is the type-level graph
``G_T = (A, R)`` induced by a typed :class:`~repro.kg.graph.KnowledgeGraph`:
it records which ``(source type, relation, target type)`` signatures occur
and enumerates the candidate meta-paths they allow — the
step that traditional path-based methods delegate to domain experts and that
RuleRec automates.
"""

from __future__ import annotations

from repro.core.exceptions import GraphError

from .graph import KnowledgeGraph
from .metapath import MetaPath

__all__ = ["NetworkSchema"]


class NetworkSchema:
    """The network schema of a typed knowledge graph."""

    def __init__(self, kg: KnowledgeGraph) -> None:
        if kg.entity_types is None:
            raise GraphError("network schema requires a typed graph")
        self.kg = kg
        signatures: set[tuple[int, int, int]] = set()
        types = kg.entity_types
        for h, r, t in kg.triples():
            signatures.add((int(types[h]), int(r), int(types[t])))
        self.signatures = frozenset(signatures)
        self.num_types = int(types.max()) + 1 if types.size else 0

    # ------------------------------------------------------------------ #
    def steps_from(self, src_type: int) -> list[tuple[int, int]]:
        """``(relation, dst_type)`` steps available from ``src_type``."""
        steps: set[tuple[int, int]] = set()
        for a, r, b in self.signatures:
            if a == src_type:
                steps.add((r, b))
            if b == src_type:
                steps.add((r, a))
        return sorted(steps)

    def enumerate_metapaths(
        self,
        src_type: int,
        dst_type: int,
        max_length: int = 3,
        max_paths: int = 100,
    ) -> list[MetaPath]:
        """All schema-valid meta-paths ``src_type ~> dst_type``.

        Generated in breadth-first order (shortest first), bounded by
        ``max_length`` steps and ``max_paths`` results.
        """
        if max_length < 1:
            raise GraphError("max_length must be >= 1")
        results: list[MetaPath] = []
        frontier: list[tuple[tuple[int, ...], tuple[int, ...]]] = [
            ((src_type,), ())
        ]
        for __ in range(max_length):
            next_frontier: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
            for node_types, rel_types in frontier:
                for relation, nxt in self.steps_from(node_types[-1]):
                    candidate = (node_types + (nxt,), rel_types + (relation,))
                    if nxt == dst_type:
                        results.append(MetaPath(candidate[0], candidate[1]))
                        if len(results) >= max_paths:
                            return results
                    next_frontier.append(candidate)
            frontier = next_frontier
        return results

    def describe(self) -> list[str]:
        """Readable signature list, sorted."""
        lines = []
        for a, r, b in sorted(self.signatures):
            lines.append(
                f"{self.kg.type_name(a)} -[{self.kg.relation_label(r)}]-> "
                f"{self.kg.type_name(b)}"
            )
        return lines
