"""Tests for meta-paths, PathSim, path enumeration, and the network schema."""

import numpy as np
import pytest

from repro.core.exceptions import GraphError
from repro.kg.hin import NetworkSchema
from repro.kg.metapath import (
    MetaGraph,
    MetaPath,
    Path,
    enumerate_paths,
    metagraph_adjacency,
    metapath_adjacency,
    pathcount_similarity,
    pathsim_matrix,
)

IGI = MetaPath((0, 1, 0), (0, 0), name="item-genre-item")
IAI = MetaPath((0, 2, 0), (1, 1), name="item-actor-item")


class TestMetaPath:
    def test_length(self):
        assert IGI.length == 2

    def test_symmetry(self):
        assert IGI.is_symmetric
        assert not MetaPath((0, 1), (0,)).is_symmetric

    def test_validation(self):
        with pytest.raises(GraphError):
            MetaPath((0, 1), (0, 1))

    def test_describe(self, tiny_kg):
        text = IGI.describe(tiny_kg)
        assert "item" in text and "has_genre" in text

    def test_describe_untyped(self):
        assert "T0" in IGI.describe()


class TestAdjacency:
    def test_counts(self, tiny_kg):
        m = metapath_adjacency(tiny_kg, IGI)
        # Both items share genre2; item1 additionally has genre3.
        assert m[0, 1] == 1
        assert m[1, 0] == 1
        assert m[0, 0] == 1
        assert m[1, 1] == 2

    def test_requires_types(self, tiny_kg):
        from repro.kg.graph import KnowledgeGraph

        untyped = KnowledgeGraph(tiny_kg.store)
        with pytest.raises(GraphError):
            metapath_adjacency(untyped, IGI)

    def test_actor_path_no_sharing(self, tiny_kg):
        m = metapath_adjacency(tiny_kg, IAI)
        assert m[0, 1] == 0  # items have distinct actors


class TestPathSim:
    def test_range_and_diagonal(self, tiny_kg):
        s = pathsim_matrix(tiny_kg, IGI).toarray()
        items = [0, 1]
        for i in items:
            assert s[i, i] == pytest.approx(1.0)
        assert 0.0 <= s[0, 1] <= 1.0

    def test_symmetry(self, tiny_kg):
        s = pathsim_matrix(tiny_kg, IGI).toarray()
        np.testing.assert_allclose(s, s.T)

    def test_formula(self, tiny_kg):
        s = pathsim_matrix(tiny_kg, IGI).toarray()
        # Eq. 12: 2*1 / (1 + 2)
        assert s[0, 1] == pytest.approx(2.0 / 3.0)

    def test_requires_symmetric_path(self, tiny_kg):
        with pytest.raises(GraphError):
            pathsim_matrix(tiny_kg, MetaPath((0, 1), (0,)))

    def test_pathcount_row_normalized(self, tiny_kg):
        m = pathcount_similarity(tiny_kg, IGI).toarray()
        sums = m.sum(axis=1)
        for row in range(2):
            assert sums[row] == pytest.approx(1.0)


class TestMetaGraph:
    def test_validation_endpoint_mismatch(self):
        with pytest.raises(GraphError):
            MetaGraph(paths=(IGI, MetaPath((0, 1, 1), (0, 0))))

    def test_hadamard_and_semantics(self, tiny_kg):
        mg = MetaGraph(paths=(IGI, IAI), combine="hadamard")
        m = metagraph_adjacency(tiny_kg, mg).toarray()
        # Items share a genre but no actor -> AND gives 0.
        assert m[0, 1] == 0

    def test_sum_or_semantics(self, tiny_kg):
        mg = MetaGraph(paths=(IGI, IAI), combine="sum")
        m = metagraph_adjacency(tiny_kg, mg).toarray()
        assert m[0, 1] == 1

    def test_empty_paths(self):
        with pytest.raises(GraphError):
            MetaGraph(paths=())


class TestEnumeratePaths:
    def test_finds_genre_bridge(self, tiny_kg):
        paths = enumerate_paths(tiny_kg, 0, 1, max_length=2)
        assert any(p.entities == (0, 2, 1) for p in paths)

    def test_simple_paths_only(self, tiny_kg):
        for p in enumerate_paths(tiny_kg, 0, 1, max_length=4, max_paths=100):
            assert len(set(p.entities)) == len(p.entities)

    def test_max_paths_cap(self, tiny_kg):
        paths = enumerate_paths(tiny_kg, 0, 1, max_length=4, max_paths=1)
        assert len(paths) == 1

    def test_length_bound(self, tiny_kg):
        for p in enumerate_paths(tiny_kg, 0, 1, max_length=2, max_paths=50):
            assert p.length <= 2

    def test_no_path(self, tiny_kg):
        # actor4 and actor5 connect only through items (length 3+).
        assert enumerate_paths(tiny_kg, 4, 5, max_length=1) == []

    def test_invalid_length(self, tiny_kg):
        with pytest.raises(GraphError):
            enumerate_paths(tiny_kg, 0, 1, max_length=0)

    def test_path_render(self, tiny_kg):
        p = Path((0, 2, 1), (0, 0))
        text = p.render(tiny_kg)
        assert "item0" in text and "genre2" in text and "item1" in text


class TestNetworkSchema:
    def test_signatures(self, tiny_kg):
        schema = NetworkSchema(tiny_kg)
        assert (0, 0, 1) in schema.signatures  # item -has_genre-> genre
        assert (0, 0) in schema.steps_from(1)  # reversed direction allowed

    def test_enumerate_symmetric_item_paths(self, tiny_kg):
        schema = NetworkSchema(tiny_kg)
        paths = schema.enumerate_metapaths(0, 0, max_length=2)
        two_step = [p for p in paths if p.length == 2]
        assert len(two_step) == 2  # via genre and via actor
        for p in two_step:
            steps = zip(p.node_types[:-1], p.relation_types, p.node_types[1:])
            assert all((r, b) in schema.steps_from(a) for a, r, b in steps)

    def test_untyped_rejected(self, tiny_kg):
        from repro.kg.graph import KnowledgeGraph

        with pytest.raises(GraphError):
            NetworkSchema(KnowledgeGraph(tiny_kg.store))

    def test_describe(self, tiny_kg):
        lines = NetworkSchema(tiny_kg).describe()
        assert any("has_genre" in line for line in lines)
