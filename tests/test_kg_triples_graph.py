"""Tests for TripleStore and KnowledgeGraph."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import GraphError
from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import TripleStore


class TestTripleStore:
    def test_dedup(self):
        store = TripleStore.from_triples([(0, 0, 1), (0, 0, 1)], 2, 1)
        assert store.num_triples == 1

    def test_contains(self):
        store = TripleStore.from_triples([(0, 0, 1)], 2, 1)
        assert (0, 0, 1) in store
        assert (1, 0, 0) not in store

    def test_out_of_range_entity(self):
        with pytest.raises(GraphError):
            TripleStore.from_triples([(0, 0, 5)], 2, 1)

    def test_out_of_range_relation(self):
        with pytest.raises(GraphError):
            TripleStore.from_triples([(0, 3, 1)], 2, 1)

    def test_bad_shape(self):
        with pytest.raises(GraphError):
            TripleStore.from_triples(np.zeros((2, 4), dtype=int), 2, 1)

    def test_empty_store(self):
        store = TripleStore.from_triples([], 3, 2)
        assert store.num_triples == 0
        assert store.neighbors(0) == []

    def test_outgoing_incoming(self):
        store = TripleStore.from_triples([(0, 0, 1), (2, 1, 0)], 3, 2)
        assert store.heads[store.outgoing(0)].tolist() == [0]
        assert store.degree(0) == 2  # one outgoing + one incoming fact

    def test_neighbors_directed_vs_undirected(self):
        store = TripleStore.from_triples([(0, 0, 1)], 2, 1)
        assert store.neighbors(1, undirected=False) == []
        assert store.neighbors(1, undirected=True) == [(0, 0)]

    def test_with_relation(self):
        store = TripleStore.from_triples([(0, 0, 1), (0, 1, 1)], 2, 2)
        assert store.with_relation(0).size == 1

    def test_degree(self):
        store = TripleStore.from_triples([(0, 0, 1), (1, 0, 2), (2, 0, 1)], 3, 1)
        assert store.degree(1) == 3


@settings(max_examples=30, deadline=None)
@given(
    triples=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 5)),
        min_size=1,
        max_size=30,
    )
)
def test_property_neighbors_cover_all_triples(triples):
    store = TripleStore.from_triples(np.asarray(triples), 6, 3)
    recovered = set()
    for entity in range(6):
        for rel, nbr in store.neighbors(entity, undirected=False):
            recovered.add((entity, rel, nbr))
    assert recovered == set(map(tuple, triples))


@settings(max_examples=30, deadline=None)
@given(
    triples=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 5)),
        min_size=1,
        max_size=30,
    )
)
def test_property_degree_sums(triples):
    store = TripleStore.from_triples(np.asarray(triples), 6, 3)
    total = sum(store.degree(e) for e in range(6))
    assert total == 2 * store.num_triples


class TestKnowledgeGraph:
    def test_labels(self, tiny_kg):
        assert tiny_kg.entity_label(0) == "item0"
        assert tiny_kg.relation_label(1) == "acted_by"
        assert tiny_kg.entity_id("genre2") == 2
        assert tiny_kg.relation_id("has_genre") == 0

    def test_unknown_label(self, tiny_kg):
        with pytest.raises(GraphError):
            tiny_kg.entity_id("nope")

    def test_types(self, tiny_kg):
        assert tiny_kg.type_of(0) == 0
        assert tiny_kg.type_name(1) == "genre"
        assert tiny_kg.entities_of_type(2).tolist() == [4, 5]

    def test_fallback_labels(self):
        store = TripleStore.from_triples([(0, 0, 1)], 2, 1)
        kg = KnowledgeGraph(store)
        assert kg.entity_label(0) == "e0"
        assert kg.relation_label(0) == "r0"

    def test_label_count_validation(self):
        store = TripleStore.from_triples([(0, 0, 1)], 2, 1)
        with pytest.raises(GraphError):
            KnowledgeGraph(store, entity_labels=["only-one"])

    def test_has_fact(self, tiny_kg):
        assert tiny_kg.has_fact(0, 0, 2)
        assert not tiny_kg.has_fact(2, 0, 0)

    def test_describe(self, tiny_kg):
        info = tiny_kg.describe()
        assert info["entities"] == 6
        assert info["mean_degree"] > 0
