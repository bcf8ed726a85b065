"""The :class:`KnowledgeGraph`: a typed, labeled triple store.

Matches the survey's definition: a directed graph whose nodes are entities
and whose edges are subject-property-object facts, viewed as an instance of
a heterogeneous information network when entity/relation types are present.
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import GraphError

from .triples import TripleStore

__all__ = ["KnowledgeGraph"]


class KnowledgeGraph:
    """A knowledge graph ``G = (V, E)`` with optional labels and types.

    Parameters
    ----------
    store:
        The underlying facts.
    entity_labels, relation_labels:
        Optional human-readable names (one per id).
    entity_types:
        Optional integer type id per entity (the HIN mapping ``phi``).
    type_names, relation_type_names:
        Names for entity-type ids and (defaulting to relation labels) the
        relation-type mapping ``psi``.
    """

    def __init__(
        self,
        store: TripleStore,
        entity_labels: list[str] | None = None,
        relation_labels: list[str] | None = None,
        entity_types: np.ndarray | None = None,
        type_names: list[str] | None = None,
    ) -> None:
        self.store = store
        if entity_labels is not None and len(entity_labels) != store.num_entities:
            raise GraphError("need one label per entity")
        if relation_labels is not None and len(relation_labels) != store.num_relations:
            raise GraphError("need one label per relation")
        self.entity_labels = list(entity_labels) if entity_labels else None
        self.relation_labels = list(relation_labels) if relation_labels else None
        if entity_types is not None:
            entity_types = np.asarray(entity_types, dtype=np.int64)
            if entity_types.shape != (store.num_entities,):
                raise GraphError("need one type per entity")
        self.entity_types = entity_types
        self.type_names = list(type_names) if type_names else None
        self._entity_index: dict[str, int] | None = None
        self._relation_index: dict[str, int] | None = None

    # ------------------------------------------------------------------ #
    @classmethod
    def from_triples(
        cls,
        triples,
        num_entities: int,
        num_relations: int,
        **kwargs,
    ) -> "KnowledgeGraph":
        store = TripleStore.from_triples(triples, num_entities, num_relations)
        return cls(store, **kwargs)

    # ------------------------------------------------------------------ #
    @property
    def num_entities(self) -> int:
        return self.store.num_entities

    @property
    def num_relations(self) -> int:
        return self.store.num_relations

    @property
    def num_triples(self) -> int:
        return self.store.num_triples

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KnowledgeGraph(entities={self.num_entities}, "
            f"relations={self.num_relations}, triples={self.num_triples})"
        )

    # ------------------------------------------------------------------ #
    # labels and types
    # ------------------------------------------------------------------ #
    def entity_label(self, entity: int) -> str:
        if self.entity_labels is None:
            return f"e{entity}"
        return self.entity_labels[entity]

    def relation_label(self, relation: int) -> str:
        if self.relation_labels is None:
            return f"r{relation}"
        return self.relation_labels[relation]

    @staticmethod
    def _label_index(labels: list[str]) -> dict[str, int]:
        index: dict[str, int] = {}
        for i, label in enumerate(labels):
            index.setdefault(label, i)
        return index

    def entity_id(self, label: str) -> int:
        """Inverse of :meth:`entity_label` (lazily built dict, O(1) lookup)."""
        if self.entity_labels is None:
            raise GraphError("graph has no entity labels")
        if self._entity_index is None:
            self._entity_index = self._label_index(self.entity_labels)
        try:
            return self._entity_index[label]
        except KeyError:
            raise GraphError(f"no entity labeled {label!r}") from None

    def relation_id(self, label: str) -> int:
        if self.relation_labels is None:
            raise GraphError("graph has no relation labels")
        if self._relation_index is None:
            self._relation_index = self._label_index(self.relation_labels)
        try:
            return self._relation_index[label]
        except KeyError:
            raise GraphError(f"no relation labeled {label!r}") from None

    def type_of(self, entity: int) -> int:
        """The HIN entity-type id ``phi(entity)``."""
        if self.entity_types is None:
            raise GraphError("graph has no entity types")
        return int(self.entity_types[entity])

    def type_name(self, type_id: int) -> str:
        if self.type_names is None:
            return f"type{type_id}"
        return self.type_names[type_id]

    def entities_of_type(self, type_id: int) -> np.ndarray:
        if self.entity_types is None:
            raise GraphError("graph has no entity types")
        return np.flatnonzero(self.entity_types == type_id).astype(np.int64)

    # ------------------------------------------------------------------ #
    # delegated graph access
    # ------------------------------------------------------------------ #
    def neighbors(self, entity: int, undirected: bool = True) -> list[tuple[int, int]]:
        return self.store.neighbors(entity, undirected=undirected)

    def degree(self, entity: int) -> int:
        return self.store.degree(entity)

    def has_fact(self, head: int, relation: int, tail: int) -> bool:
        return (head, relation, tail) in self.store

    def triples(self) -> np.ndarray:
        return self.store.triples()

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #
    def describe(self) -> dict[str, float]:
        """Basic statistics used in dataset summaries."""
        degrees = self.store.degree_batch(
            np.arange(self.num_entities, dtype=np.int64)
        ).astype(np.float64)
        return {
            "entities": self.num_entities,
            "relations": self.num_relations,
            "triples": self.num_triples,
            "mean_degree": float(degrees.mean()) if degrees.size else 0.0,
            "max_degree": float(degrees.max()) if degrees.size else 0.0,
        }
