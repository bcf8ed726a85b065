"""Unit and property tests for InteractionMatrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import DataError
from repro.core.interactions import InteractionMatrix


def make(pairs, m=4, n=5, ratings=None):
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if ratings is None:
        return InteractionMatrix.from_pairs(arr, m, n)
    return InteractionMatrix(arr[:, 0], arr[:, 1], m, n, ratings=np.asarray(ratings))


class TestConstruction:
    def test_basic_shape(self):
        mat = make([(0, 1), (1, 2)])
        assert mat.shape == (4, 5)
        assert mat.nnz == 2

    def test_empty(self):
        mat = InteractionMatrix.empty(3, 3)
        assert mat.nnz == 0
        assert mat.density == 0.0

    def test_duplicates_collapse(self):
        mat = make([(0, 1), (0, 1), (0, 1)])
        assert mat.nnz == 1

    def test_duplicate_keeps_last_rating(self):
        mat = make([(0, 1), (0, 1)], ratings=[2.0, 5.0])
        assert mat.to_csr()[0].data.tolist() == [5.0]

    def test_out_of_range_user(self):
        with pytest.raises(DataError):
            make([(9, 0)])

    def test_out_of_range_item(self):
        with pytest.raises(DataError):
            make([(0, 9)])

    def test_negative_id(self):
        with pytest.raises(DataError):
            make([(-1, 0)])

    def test_mismatched_arrays(self):
        with pytest.raises(DataError):
            InteractionMatrix(np.asarray([0, 1]), np.asarray([0]), 2, 2)

    def test_bad_shape_pairs(self):
        with pytest.raises(DataError):
            InteractionMatrix.from_pairs(np.zeros((2, 3), dtype=int), 2, 2)

    def test_zero_users_rejected(self):
        with pytest.raises(DataError):
            InteractionMatrix.empty(0, 3)


class TestAccess:
    def test_items_of_sorted(self):
        mat = make([(0, 4), (0, 1), (0, 2)])
        assert mat.items_of(0).tolist() == [1, 2, 4]

    def test_contains(self):
        mat = make([(0, 1)])
        assert mat.contains(0, 1)
        assert not mat.contains(0, 2)
        assert not mat.contains(1, 1)

    def test_degrees(self):
        mat = make([(0, 1), (0, 2), (1, 2)])
        assert mat.user_degrees().tolist() == [2, 1, 0, 0]
        assert mat.item_degrees().tolist() == [0, 1, 2, 0, 0]

    def test_pairs_roundtrip(self):
        pairs = [(0, 1), (1, 2), (3, 4)]
        mat = make(pairs)
        assert sorted(map(tuple, mat.pairs().tolist())) == sorted(pairs)

    def test_to_dense_matches(self):
        mat = make([(0, 1), (1, 0)])
        dense = mat.to_dense()
        assert dense[0, 1] == 1.0 and dense[1, 0] == 1.0
        assert dense.sum() == 2.0

    def test_user_out_of_range_access(self):
        mat = make([(0, 1)])
        with pytest.raises(DataError):
            mat.items_of(10)


class TestSampling:

    def test_bpr_triples_valid(self):
        mat = make([(0, 1), (1, 2), (2, 3)])
        users, pos, neg = mat.sample_bpr_triples(50, seed=1)
        for u, i, j in zip(users, pos, neg):
            assert mat.contains(int(u), int(i))
            assert not mat.contains(int(u), int(j))

    def test_bpr_empty_matrix(self):
        with pytest.raises(DataError):
            InteractionMatrix.empty(2, 2).sample_bpr_triples(1)


@settings(max_examples=40, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 9)), min_size=1, max_size=40
    )
)
def test_property_degrees_sum_to_nnz(pairs):
    mat = InteractionMatrix.from_pairs(np.asarray(pairs), 8, 10)
    assert mat.user_degrees().sum() == mat.nnz
    assert mat.item_degrees().sum() == mat.nnz


@settings(max_examples=40, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 9)), min_size=1, max_size=40
    )
)
def test_property_contains_consistent_with_pairs(pairs):
    mat = InteractionMatrix.from_pairs(np.asarray(pairs), 8, 10)
    observed = set(map(tuple, mat.pairs().tolist()))
    assert observed == set(map(tuple, pairs))
    for u, v in observed:
        assert mat.contains(u, v)


@settings(max_examples=30, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=20
    )
)
def test_property_dense_roundtrip(pairs):
    mat = InteractionMatrix.from_pairs(np.asarray(pairs), 6, 6)
    dense = mat.to_dense()
    assert dense.sum() == mat.nnz
    for u, v in set(pairs):
        assert dense[u, v] == 1.0
