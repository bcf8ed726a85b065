"""Equivalence tests: vectorized KG kernels vs scalar reference semantics.

The CSR/packed-key rewrite of :class:`TripleStore`, the batched
``corrupt_batch``, and the flat-array :class:`NeighborCache` must agree
exactly with the scalar reference implementations on membership and
neighborhood structure, and the new single-draw RNG paths must stay
deterministic under a fixed seed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import GraphError
from repro.kg.graph import KnowledgeGraph
from repro.kg.sampling import NeighborCache, corrupt_batch
from repro.kg.triples import TripleStore


def random_store(seed, num_triples=120, num_entities=25, num_relations=4):
    rng = np.random.default_rng(seed)
    triples = np.stack(
        [
            rng.integers(0, num_entities, size=num_triples),
            rng.integers(0, num_relations, size=num_triples),
            rng.integers(0, num_entities, size=num_triples),
        ],
        axis=1,
    )
    return TripleStore.from_triples(triples, num_entities, num_relations)


class TestContainsBatch:
    def test_matches_tuple_set(self):
        store = random_store(0)
        fact_set = set(
            zip(store.heads.tolist(), store.relations.tolist(), store.tails.tolist())
        )
        rng = np.random.default_rng(1)
        h = rng.integers(0, store.num_entities, size=500)
        r = rng.integers(0, store.num_relations, size=500)
        t = rng.integers(0, store.num_entities, size=500)
        got = store.contains_batch(h, r, t)
        expected = np.asarray(
            [(int(a), int(b), int(c)) in fact_set for a, b, c in zip(h, r, t)]
        )
        assert np.array_equal(got, expected)

    def test_all_facts_present(self):
        store = random_store(2)
        assert store.contains_batch(store.heads, store.relations, store.tails).all()

    def test_out_of_range_is_absent(self):
        store = TripleStore.from_triples([(0, 0, 1)], 2, 1)
        got = store.contains_batch([-1, 0, 2, 0], [0, 1, 0, 0], [1, 1, 1, 2])
        assert not got.any()

    def test_empty_store(self):
        store = TripleStore.from_triples([], 3, 2)
        assert not store.contains_batch([0, 1], [0, 0], [1, 2]).any()
        assert (0, 0, 1) not in store

    def test_scalar_contains_agrees(self):
        store = random_store(3)
        for h, r, t in [(0, 0, 1), (1, 2, 3), (24, 3, 24)]:
            expected = bool(
                ((store.heads == h) & (store.relations == r) & (store.tails == t)).any()
            )
            assert ((h, r, t) in store) == expected


class TestCsrAdjacency:
    def test_outgoing_incoming_match_flatnonzero(self):
        store = random_store(4)
        for entity in range(store.num_entities):
            assert np.array_equal(
                store.outgoing(entity), np.flatnonzero(store.heads == entity)
            )
            # The tail index backs the incoming half of the degree.
            assert store.degree(entity) == np.count_nonzero(
                store.heads == entity
            ) + np.count_nonzero(store.tails == entity)

    def test_with_relation_matches_flatnonzero(self):
        store = random_store(5)
        for rel in range(store.num_relations):
            assert np.array_equal(
                store.with_relation(rel), np.flatnonzero(store.relations == rel)
            )

    def test_degree_batch_matches_scalar(self):
        store = random_store(6)
        entities = np.arange(store.num_entities)
        batch = store.degree_batch(entities)
        assert batch.tolist() == [store.degree(int(e)) for e in entities]

    def test_neighbors_batch_matches_scalar(self):
        store = random_store(7)
        entities = np.asarray([3, 0, 3, 24, 11])
        for undirected in (True, False):
            offsets, rels, nbrs = store.neighbors_batch(entities, undirected)
            for i, entity in enumerate(entities):
                lo, hi = offsets[i], offsets[i + 1]
                pairs = list(zip(rels[lo:hi].tolist(), nbrs[lo:hi].tolist()))
                assert pairs == store.neighbors(int(entity), undirected=undirected)

    def test_neighbors_batch_empty(self):
        store = random_store(8)
        offsets, rels, nbrs = store.neighbors_batch(np.empty(0, dtype=np.int64))
        assert offsets.tolist() == [0] and rels.size == 0 and nbrs.size == 0


class TestCorruptBatch:
    def test_negatives_never_in_store(self):
        store = random_store(9)
        idx = np.arange(store.num_triples)
        heads, rels, tails = corrupt_batch(store, idx, seed=0)
        assert not store.contains_batch(heads, rels, tails).any()

    def test_relations_preserved(self):
        store = random_store(10)
        idx = np.arange(store.num_triples)
        __, rels, __ = corrupt_batch(store, idx, seed=0)
        assert np.array_equal(rels, store.relations[idx])

    def test_exactly_one_side_corrupted(self):
        store = random_store(11)
        idx = np.arange(store.num_triples)
        heads, __, tails = corrupt_batch(store, idx, seed=0)
        head_changed = heads != store.heads[idx]
        tail_changed = tails != store.tails[idx]
        # A candidate equal to the original id is a fact, so it always
        # resamples; at least one side must differ and never both.
        assert (head_changed | tail_changed).all()
        assert not (head_changed & tail_changed).any()

    def test_corrupt_tail_prob_extremes(self):
        store = random_store(12)
        idx = np.arange(store.num_triples)
        heads, __, __ = corrupt_batch(store, idx, seed=0, corrupt_tail_prob=1.0)
        assert np.array_equal(heads, store.heads[idx])
        __, __, tails = corrupt_batch(store, idx, seed=0, corrupt_tail_prob=0.0)
        assert np.array_equal(tails, store.tails[idx])

    def test_deterministic_under_seed(self):
        store = random_store(13)
        idx = np.arange(store.num_triples)
        a = corrupt_batch(store, idx, seed=42)
        b = corrupt_batch(store, idx, seed=42)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_empty_indices(self):
        store = random_store(14)
        heads, rels, tails = corrupt_batch(store, np.empty(0, dtype=np.int64), seed=0)
        assert heads.size == rels.size == tails.size == 0


class TestCorruptFallback:
    def make_dense_store(self):
        # (0, 0, *) dense except tail 3; plus head corruptions all facts too.
        triples = [(0, 0, t) for t in range(5) if t != 3]
        triples += [(h, 0, 0) for h in range(1, 5)]
        return TripleStore.from_triples(triples, 5, 1)

    def test_fallback_returns_first_free_tail(self):
        store = self.make_dense_store()
        assert store.corrupt_fallback(0, 0, 0) == (0, 0, 3)

    def test_fallback_falls_back_to_heads(self):
        # Every (0, 0, *) is a fact, but head corruptions of tail 1 are free.
        triples = [(0, 0, t) for t in range(3)]
        store = TripleStore.from_triples(triples, 3, 1)
        assert store.corrupt_fallback(0, 0, 1) == (1, 0, 1)

    def test_fallback_raises_when_saturated(self):
        # Complete bipartite-ish: every head/tail corruption is a fact.
        triples = [(h, 0, t) for h in range(2) for t in range(2)]
        store = TripleStore.from_triples(triples, 2, 1)
        with pytest.raises(GraphError):
            store.corrupt_fallback(0, 0, 0)

    def test_batch_fallback_never_returns_fact(self):
        store = self.make_dense_store()
        idx = np.arange(store.num_triples)
        heads, rels, tails = corrupt_batch(store, idx, seed=0, max_tries=1)
        assert not store.contains_batch(heads, rels, tails).any()


class TestNeighborCacheVectorized:
    def test_samples_are_true_neighbor_pairs(self):
        store = random_store(15)
        kg = KnowledgeGraph(store)
        cache = NeighborCache(kg)
        entities = np.arange(kg.num_entities)
        rels, nbrs = cache.sample(entities, 6, seed=0)
        for e in entities:
            true_pairs = set(zip(*(a.tolist() for a in cache.neighbors_of(int(e)))))
            assert set(zip(rels[e].tolist(), nbrs[e].tolist())) <= true_pairs

    def test_neighbors_of_matches_store(self):
        store = random_store(16)
        kg = KnowledgeGraph(store)
        cache = NeighborCache(kg)
        for e in range(kg.num_entities):
            rels, nbrs = cache.neighbors_of(e)
            expected = kg.neighbors(e, undirected=True)
            if expected:
                assert list(zip(rels.tolist(), nbrs.tolist())) == expected
            else:
                assert rels.tolist() == [cache.self_relation]
                assert nbrs.tolist() == [e]

    def test_single_rng_draw_determinism(self):
        store = random_store(17)
        cache = NeighborCache(KnowledgeGraph(store))
        entities = np.asarray([0, 5, 5, 12])
        a = cache.sample(entities, 7, seed=99)
        b = cache.sample(entities, 7, seed=99)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_empty_entity_batch(self):
        store = random_store(18)
        cache = NeighborCache(KnowledgeGraph(store))
        rels, nbrs = cache.sample(np.empty(0, dtype=np.int64), 3, seed=0)
        assert rels.shape == nbrs.shape == (0, 3)


@settings(max_examples=30, deadline=None)
@given(
    triples=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 3), st.integers(0, 7)),
        min_size=1,
        max_size=40,
    ),
    seed=st.integers(0, 50),
)
def test_property_corrupt_batch_filtered(triples, seed):
    store = TripleStore.from_triples(np.asarray(triples), 8, 4)
    idx = np.arange(store.num_triples)
    heads, rels, tails = corrupt_batch(store, idx, seed=seed)
    for fact in zip(heads, rels, tails):
        assert tuple(int(x) for x in fact) not in store


@settings(max_examples=30, deadline=None)
@given(
    triples=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 3), st.integers(0, 7)),
        min_size=0,
        max_size=40,
    )
)
def test_property_contains_batch_no_false_results(triples):
    store = TripleStore.from_triples(
        np.asarray(triples, dtype=np.int64).reshape(-1, 3), 8, 4
    )
    fact_set = set(map(tuple, np.asarray(triples, dtype=np.int64).reshape(-1, 3).tolist()))
    h, r, t = np.meshgrid(np.arange(8), np.arange(4), np.arange(8), indexing="ij")
    got = store.contains_batch(h.ravel(), r.ravel(), t.ravel())
    expected = np.asarray(
        [
            (a, b, c) in fact_set
            for a, b, c in zip(h.ravel().tolist(), r.ravel().tolist(), t.ravel().tolist())
        ]
    )
    assert np.array_equal(got, expected)


class TestKgeDeterminism:
    def test_fit_history_deterministic(self):
        from repro.kge.translational import TransE

        store = random_store(21, num_triples=60, num_entities=15, num_relations=3)
        h1 = TransE(store.num_entities, store.num_relations, dim=8, seed=0).fit(
            store, epochs=3, seed=5
        )
        h2 = TransE(store.num_entities, store.num_relations, dim=8, seed=0).fit(
            store, epochs=3, seed=5
        )
        assert h1 == h2
