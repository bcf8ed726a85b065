"""Tests for the sampled-ranking protocol and KG analysis utilities."""

import pytest

from repro.core.exceptions import EvaluationError
from repro.core.recommender import Recommender
from repro.eval.ranking import sampled_ranking_evaluation
from repro.kg.analysis import (
    connected_components,
    degree_distribution,
    graph_summary,
    relation_histogram,
)
from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import TripleStore
from repro.models.baselines import MostPopular, Random


class OracleModel(Recommender):
    def fit(self, dataset):
        self._scores = dataset.extra["user_latent"] @ dataset.extra["item_latent"].T
        self._mark_fitted(dataset)
        return self

    def score_all(self, user_id):
        return self._scores[user_id]


class TestSampledRanking:
    def test_oracle_beats_random(self, movie_split):
        train, test = movie_split
        oracle = sampled_ranking_evaluation(
            OracleModel().fit(train), train, test, num_negatives=30, seed=0
        )
        rnd = sampled_ranking_evaluation(
            Random(seed=0).fit(train), train, test, num_negatives=30, seed=0
        )
        assert oracle["HR@10"] > rnd["HR@10"]
        assert oracle["MRR"] > rnd["MRR"]

    def test_metric_keys(self, movie_split):
        train, test = movie_split
        result = sampled_ranking_evaluation(
            MostPopular().fit(train), train, test, k_values=(3, 7), seed=0
        )
        assert set(result) == {"HR@3", "HR@7", "NDCG@3", "NDCG@7", "MRR"}

    def test_random_hr_near_expectation(self, movie_split):
        """With C candidates, random HR@k ~= k / C."""
        train, test = movie_split
        result = sampled_ranking_evaluation(
            Random(seed=1).fit(train), train, test, num_negatives=19, seed=0
        )
        assert abs(result["HR@10"] - 0.5) < 0.15  # 10 of 20 candidates

    def test_requires_fitted(self, movie_split):
        train, test = movie_split
        with pytest.raises(EvaluationError):
            sampled_ranking_evaluation(Random(), train, test)

    def test_max_users(self, movie_split):
        train, test = movie_split
        result = sampled_ranking_evaluation(
            MostPopular().fit(train), train, test, max_users=5, seed=0
        )
        assert "MRR" in result


class TestAnalysis:
    def test_relation_histogram(self, tiny_kg):
        hist = relation_histogram(tiny_kg)
        assert hist == {"has_genre": 3, "acted_by": 2}

    def test_degree_distribution(self, tiny_kg):
        dist = degree_distribution(tiny_kg)
        assert dist["max"] >= dist["mean"] >= dist["min"]
        assert dist["isolated"] == 0

    def test_connected_components_single(self, tiny_kg):
        components = connected_components(tiny_kg)
        assert len(components) == 1
        assert components[0].size == 6

    def test_connected_components_split(self):
        store = TripleStore.from_triples([(0, 0, 1), (2, 0, 3)], 5, 1)
        kg = KnowledgeGraph(store)
        components = connected_components(kg)
        # {0,1}, {2,3}, {4}
        assert [c.size for c in components] == [2, 2, 1]

    def test_graph_summary(self, movie_dataset):
        summary = graph_summary(movie_dataset.kg)
        assert summary["entities"] == movie_dataset.kg.num_entities
        assert sum(summary["relation_histogram"].values()) == summary["triples"]
        assert summary["largest_component"] <= summary["entities"]
