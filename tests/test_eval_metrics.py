"""Metric correctness tests, including hand-computed cases and properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import EvaluationError
from repro.eval.metrics import (
    auc,
    hit_ratio_at_k,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
    reciprocal_rank,
)

RANKED = np.asarray([3, 1, 4, 1, 5, 9, 2, 6])


class TestAUC:
    def test_perfect_separation(self):
        assert auc([2.0, 3.0], [0.0, 1.0]) == 1.0

    def test_inverted(self):
        assert auc([0.0], [1.0, 2.0]) == 0.0

    def test_random_is_half(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=2000)
        value = auc(scores[:1000], scores[1000:])
        assert 0.45 < value < 0.55

    def test_ties_count_half(self):
        assert auc([1.0], [1.0]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            auc([], [1.0])

    def test_matches_probability_interpretation(self):
        pos = np.asarray([3.0, 1.0])
        neg = np.asarray([2.0, 0.0])
        expected = np.mean([[1 if p > n else 0 for n in neg] for p in pos])
        assert auc(pos, neg) == pytest.approx(expected)


class TestTopK:
    def test_precision_hand_computed(self):
        assert precision_at_k(RANKED, {3, 4}, 3) == pytest.approx(2 / 3)

    def test_precision_counts_denominator_k(self):
        # Only 2 items ranked but k=5: denominator stays k.
        assert precision_at_k(np.asarray([1, 2]), {1}, 5) == pytest.approx(1 / 5)

    def test_recall_hand_computed(self):
        assert recall_at_k(RANKED, {3, 4, 7}, 3) == pytest.approx(2 / 3)

    def test_recall_needs_relevant(self):
        with pytest.raises(EvaluationError):
            recall_at_k(RANKED, set(), 3)

    def test_hit_ratio(self):
        assert hit_ratio_at_k(RANKED, {9}, 6) == 1.0
        assert hit_ratio_at_k(RANKED, {9}, 5) == 0.0

    def test_ndcg_perfect(self):
        assert ndcg_at_k(np.asarray([7, 8]), {7, 8}, 2) == pytest.approx(1.0)

    def test_ndcg_position_discount(self):
        first = ndcg_at_k(np.asarray([7, 0, 0]), {7}, 3)
        third = ndcg_at_k(np.asarray([0, 1, 7]), {7}, 3)
        assert first == pytest.approx(1.0)
        assert third == pytest.approx(1.0 / np.log2(4))

    def test_reciprocal_rank(self):
        assert reciprocal_rank(RANKED, {4}) == pytest.approx(1 / 3)
        assert reciprocal_rank(RANKED, {999}) == 0.0

    def test_invalid_k(self):
        with pytest.raises(EvaluationError):
            precision_at_k(RANKED, {1}, 0)


@st.composite
def ranking_case(draw):
    n = draw(st.integers(3, 20))
    ranked = draw(
        st.permutations(list(range(n))).map(lambda p: np.asarray(p[: draw(st.integers(1, n))]))
    )
    relevant = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    k = draw(st.integers(1, n))
    return ranked, relevant, k


@settings(max_examples=60, deadline=None)
@given(case=ranking_case())
def test_property_metric_bounds(case):
    ranked, relevant, k = case
    for fn in (precision_at_k, recall_at_k, ndcg_at_k, hit_ratio_at_k):
        value = fn(ranked, relevant, k)
        assert 0.0 <= value <= 1.0
    assert 0.0 <= reciprocal_rank(ranked, relevant) <= 1.0


@settings(max_examples=40, deadline=None)
@given(case=ranking_case())
def test_property_hit_implies_positive_metrics(case):
    ranked, relevant, k = case
    hit = hit_ratio_at_k(ranked, relevant, k)
    if hit == 1.0:
        assert precision_at_k(ranked, relevant, k) > 0
        assert ndcg_at_k(ranked, relevant, k) > 0
    else:
        assert precision_at_k(ranked, relevant, k) == 0


@settings(max_examples=40, deadline=None)
@given(
    pos=st.lists(st.floats(-5, 5), min_size=1, max_size=20),
    neg=st.lists(st.floats(-5, 5), min_size=1, max_size=20),
)
def test_property_auc_antisymmetry(pos, neg):
    assert auc(pos, neg) == pytest.approx(1.0 - auc(neg, pos))
