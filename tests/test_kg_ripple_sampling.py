"""Tests for ripple sets, neighbor sampling, graph lifting, and walks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import GraphError
from repro.kg.builders import build_user_item_graph
from repro.kg.ripple import user_ripple_sets
from repro.kg.sampling import NeighborCache, corrupt_batch
from repro.kg.triples import TripleStore
from repro.kg.walks import metapath_walks, train_sgns, uniform_walks
from repro.kg.metapath import MetaPath


class TestRippleSets:
    def test_one_hop_matches_definition(self, tiny_kg):
        # E^1 from item0: tails of facts with head item0.
        sets = user_ripple_sets(tiny_kg, np.asarray([0]), hops=1)
        assert set(sets[0].tails.tolist()) == {2, 4}

    def test_user_ripple_sets_heads_are_seeds(self, tiny_kg):
        sets = user_ripple_sets(tiny_kg, np.asarray([0, 1]), hops=1)
        assert set(sets[0].heads.tolist()) <= {0, 1}

    def test_fallback_repeats_previous_hop(self, tiny_kg):
        sets = user_ripple_sets(tiny_kg, np.asarray([0]), hops=2)
        # Hop 2 falls back to hop 1 (tails have no outgoing facts).
        assert sets[1].size == sets[0].size

    def test_max_size_sampling(self, tiny_kg):
        sets = user_ripple_sets(tiny_kg, np.asarray([0, 1]), hops=1, max_size=3, seed=0)
        assert sets[0].size == 3

    def test_entity_ripple(self, tiny_kg):
        sets = user_ripple_sets(tiny_kg, np.asarray([1]), hops=1)
        assert set(sets[0].tails.tolist()) == {2, 3, 5}

    def test_invalid_hops(self, tiny_kg):
        with pytest.raises(GraphError):
            user_ripple_sets(tiny_kg, np.asarray([0]), hops=0)

    def test_deterministic_with_seed(self, tiny_kg):
        a = user_ripple_sets(tiny_kg, np.asarray([0]), hops=2, max_size=4, seed=9)
        b = user_ripple_sets(tiny_kg, np.asarray([0]), hops=2, max_size=4, seed=9)
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1.tails, s2.tails)


class TestNeighborCache:
    def test_full_lists(self, tiny_kg):
        cache = NeighborCache(tiny_kg)
        rels, nbrs = cache.neighbors_of(2)  # genre2 <- item0, item1
        assert set(nbrs.tolist()) == {0, 1}
        assert set(rels.tolist()) == {0}

    def test_isolated_entity_self_loop(self):
        store = TripleStore.from_triples([(0, 0, 1)], 3, 1)
        from repro.kg.graph import KnowledgeGraph

        cache = NeighborCache(KnowledgeGraph(store))
        rels, nbrs = cache.neighbors_of(2)
        assert nbrs.tolist() == [2]
        assert rels.tolist() == [cache.self_relation]

    def test_sample_shape(self, tiny_kg):
        cache = NeighborCache(tiny_kg)
        rels, nbrs = cache.sample(np.asarray([0, 1, 2]), 5, seed=0)
        assert rels.shape == (3, 5) and nbrs.shape == (3, 5)

    def test_sample_only_real_neighbors(self, tiny_kg):
        cache = NeighborCache(tiny_kg)
        __, nbrs = cache.sample(np.asarray([0]), 20, seed=0)
        assert set(nbrs.ravel().tolist()) <= {2, 4}

    def test_sample_deterministic(self, tiny_kg):
        cache = NeighborCache(tiny_kg)
        a = cache.sample(np.asarray([0, 1]), 4, seed=3)[1]
        b = cache.sample(np.asarray([0, 1]), 4, seed=3)[1]
        assert np.array_equal(a, b)

    def test_invalid_num_samples(self, tiny_kg):
        with pytest.raises(GraphError):
            NeighborCache(tiny_kg).sample(np.asarray([0]), 0)


class TestCorruptBatch:
    def test_no_true_facts(self, tiny_kg):
        heads, rels, tails = corrupt_batch(
            tiny_kg.store, np.arange(tiny_kg.num_triples), seed=0
        )
        for fact in zip(heads, rels, tails):
            assert tuple(int(x) for x in fact) not in tiny_kg.store


class TestLifting:
    def test_user_entities_appended(self, tiny_dataset):
        lifted = build_user_item_graph(tiny_dataset)
        kg = tiny_dataset.kg
        assert lifted.kg.num_entities == kg.num_entities + 2
        assert lifted.user_entities.tolist() == [6, 7]

    def test_interaction_facts_added(self, tiny_dataset):
        lifted = build_user_item_graph(tiny_dataset)
        rel = lifted.extra["interact_relation"]
        # user0 interacted with items 0,1; user1 with item 1.
        assert lifted.kg.has_fact(6, rel, 0)
        assert lifted.kg.has_fact(6, rel, 1)
        assert lifted.kg.has_fact(7, rel, 1)
        assert not lifted.kg.has_fact(7, rel, 0)

    def test_types_extended(self, tiny_dataset):
        lifted = build_user_item_graph(tiny_dataset)
        assert lifted.kg.type_name(lifted.kg.type_of(6)) == "user"

    def test_original_facts_preserved(self, tiny_dataset):
        lifted = build_user_item_graph(tiny_dataset)
        for h, r, t in tiny_dataset.kg.triples():
            assert lifted.kg.has_fact(int(h), int(r), int(t))

    def test_requires_kg(self):
        from repro.core.dataset import Dataset
        from repro.core.interactions import InteractionMatrix

        ds = Dataset(name="x", interactions=InteractionMatrix.empty(2, 2))
        with pytest.raises(GraphError):
            build_user_item_graph(ds)


class TestWalks:
    def test_uniform_walks_follow_edges(self, tiny_kg):
        walks = uniform_walks(tiny_kg, num_walks=2, walk_length=4, seed=0)
        assert walks
        neighbor_sets = {
            e: {n for __, n in tiny_kg.neighbors(e)} for e in range(6)
        }
        for walk in walks:
            for a, b in zip(walk, walk[1:]):
                assert b in neighbor_sets[a]

    def test_metapath_walks_alternate_types(self, tiny_kg):
        igi = MetaPath((0, 1, 0), (0, 0))
        walks = metapath_walks(tiny_kg, igi, num_walks=2, walk_length=5, seed=0)
        assert walks
        for walk in walks:
            for pos, node in enumerate(walk):
                expected_type = 0 if pos % 2 == 0 else 1
                assert tiny_kg.type_of(node) == expected_type

    def test_metapath_walks_require_symmetric(self, tiny_kg):
        with pytest.raises(GraphError):
            metapath_walks(tiny_kg, MetaPath((0, 1), (0,)))

    def test_sgns_learns_cooccurrence(self):
        # Two disjoint cliques: embeddings inside a clique should be closer.
        walks = [[0, 1, 0, 1] for __ in range(30)] + [[2, 3, 2, 3] for __ in range(30)]
        emb = train_sgns(walks, num_nodes=4, dim=8, epochs=3, seed=0)
        same = emb[0] @ emb[1]
        cross = emb[0] @ emb[3]
        assert same > cross

    def test_sgns_empty_corpus(self):
        with pytest.raises(GraphError):
            train_sgns([], num_nodes=3)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100), max_size=st.integers(1, 8))
def test_property_ripple_sampling_respects_size(seed, max_size):
    triples = [(0, 0, 1), (0, 0, 2), (1, 0, 3), (2, 0, 3), (3, 0, 4)]
    store = TripleStore.from_triples(triples, 5, 1)
    from repro.kg.graph import KnowledgeGraph

    kg = KnowledgeGraph(store)
    sets = user_ripple_sets(kg, np.asarray([0]), hops=2, max_size=max_size, seed=seed)
    for ripple in sets:
        assert ripple.size <= max_size
        # Every sampled triple is a real fact.
        for fact in zip(ripple.heads, ripple.relations, ripple.tails):
            assert tuple(int(x) for x in fact) in store
