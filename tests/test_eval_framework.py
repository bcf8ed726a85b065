"""Tests for the Evaluator, cold-start studies, explanations, significance."""

import numpy as np
import pytest

from repro.core.exceptions import EvaluationError
from repro.core.recommender import Explanation, Recommender
from repro.eval.coldstart import cold_start_study, sparsity_sweep
from repro.eval.evaluator import Evaluator
from repro.eval.explain import (
    explanation_fidelity,
    grounded_in_history,
    is_valid_explanation,
)
from repro.eval.significance import bootstrap_ci, paired_permutation_test
from repro.models.baselines import MostPopular, Random


class OracleModel(Recommender):
    """Scores items by the generator's true latent preference."""

    def fit(self, dataset):
        self._scores = dataset.extra["user_latent"] @ dataset.extra["item_latent"].T
        self._mark_fitted(dataset)
        return self

    def score_all(self, user_id):
        return self._scores[user_id]


class TestEvaluator:
    def test_requires_fitted(self, movie_split):
        train, test = movie_split
        with pytest.raises(EvaluationError):
            Evaluator(train, test).evaluate(Random())

    def test_metrics_present(self, movie_split):
        train, test = movie_split
        result = Evaluator(train, test, seed=0).evaluate(MostPopular().fit(train))
        for key in ("AUC", "Precision@5", "Recall@10", "NDCG@10", "HR@5", "MRR"):
            assert key in result.values

    def test_oracle_beats_random(self, movie_split):
        train, test = movie_split
        evaluator = Evaluator(train, test, seed=0)
        oracle = evaluator.evaluate(OracleModel().fit(train))
        random_result = evaluator.evaluate(Random(seed=0).fit(train))
        assert oracle["AUC"] > random_result["AUC"] + 0.1
        assert oracle["NDCG@10"] > random_result["NDCG@10"]

    def test_random_auc_near_half(self, movie_split):
        train, test = movie_split
        result = Evaluator(train, test, seed=0).evaluate(Random(seed=1).fit(train))
        assert 0.35 < result["AUC"] < 0.65

    def test_max_users_cap(self, movie_split):
        train, test = movie_split
        evaluator = Evaluator(train, test, max_users=5, seed=0)
        assert len(evaluator.users) == 5

    def test_shared_negatives_across_models(self, movie_split):
        train, test = movie_split
        evaluator = Evaluator(train, test, seed=0)
        # Two evaluations of the same model give identical results.
        model = MostPopular().fit(train)
        a = evaluator.evaluate(model)
        b = evaluator.evaluate(model)
        assert a.values == b.values

    def test_per_user_metric(self, movie_split):
        train, test = movie_split
        evaluator = Evaluator(train, test, seed=0)
        model = MostPopular().fit(train)
        values = evaluator.per_user_metric(model, "AUC")
        assert values.size > 0
        assert np.isfinite(values).all()
        # Per-user values average to exactly what evaluate() reports.
        result = evaluator.evaluate(model)
        for metric in ("AUC", "NDCG@10", "Recall@5", "HR@5", "Precision@10"):
            values = evaluator.per_user_metric(model, metric)
            assert float(np.mean(values)) == result[metric], metric

    def test_shape_mismatch_rejected(self, movie_dataset, tiny_dataset):
        with pytest.raises(EvaluationError):
            Evaluator(movie_dataset, tiny_dataset)


class TestColdStart:
    def test_cold_start_rows(self, movie_dataset):
        rows = cold_start_study(
            movie_dataset,
            {"pop": lambda: MostPopular(), "oracle": lambda: OracleModel()},
            seed=0,
        )
        assert {r["model"] for r in rows} == {"pop", "oracle"}
        oracle_row = next(r for r in rows if r["model"] == "oracle")
        pop_row = next(r for r in rows if r["model"] == "pop")
        # Popularity has no signal on cold items (all have zero train count).
        assert oracle_row["value"] > pop_row["value"]

    def test_sparsity_sweep_shape(self):
        from repro.data import make_movie_dataset

        rows = sparsity_sweep(
            make_movie_dataset,
            {"pop": lambda: MostPopular()},
            mean_interactions=(10.0, 5.0),
            seed=0,
            num_users=20,
            num_items=30,
        )
        assert len(rows) == 2
        assert {r["mean_interactions"] for r in rows} == {10.0, 5.0}


class TestExplanations:
    def test_valid_path_detected(self, tiny_dataset):
        expl = Explanation(
            user_id=0, item_id=1, kind="path", score=1.0,
            entities=(0, 2, 1), relations=(0, 0),
        )
        assert is_valid_explanation(expl, tiny_dataset)

    def test_invalid_edge_rejected(self, tiny_dataset):
        expl = Explanation(
            user_id=0, item_id=1, kind="path", score=1.0,
            entities=(0, 5, 1), relations=(0, 1),  # 0 -has_genre-> actor5 ??
        )
        assert not is_valid_explanation(expl, tiny_dataset)

    def test_wrong_terminal_rejected(self, tiny_dataset):
        expl = Explanation(
            user_id=0, item_id=0, kind="path", score=1.0,
            entities=(0, 2, 1), relations=(0, 0),  # ends at item1, not item0
        )
        assert not is_valid_explanation(expl, tiny_dataset)

    def test_pathless_not_valid(self, tiny_dataset):
        expl = Explanation(user_id=0, item_id=1, kind="similarity", score=1.0)
        assert not is_valid_explanation(expl, tiny_dataset)

    def test_grounding(self, tiny_dataset):
        grounded = Explanation(
            user_id=1, item_id=0, kind="path", score=1.0,
            entities=(1, 2, 0), relations=(0, 0),  # starts at user1's item1
        )
        assert grounded_in_history(grounded, tiny_dataset)
        floating = Explanation(
            user_id=1, item_id=0, kind="path", score=1.0,
            entities=(4, 0), relations=(1,),  # starts at an actor
        )
        assert not grounded_in_history(floating, tiny_dataset)

    def test_path_length_invariant(self):
        with pytest.raises(Exception):
            Explanation(
                user_id=0, item_id=0, kind="path", score=0.0,
                entities=(0, 1), relations=(),
            )

    def test_fidelity_on_explaining_model(self, movie_split):
        from repro.models.embedding_based import CFKG

        train, __ = movie_split
        model = CFKG(epochs=10, seed=0).fit(train)
        report = explanation_fidelity(model, users=list(range(8)), k=3)
        assert 0.0 <= report["validity"] <= report["coverage"] <= 1.0

    def test_render_with_labels(self, tiny_dataset):
        expl = Explanation(
            user_id=0, item_id=1, kind="path", score=1.0,
            entities=(0, 2, 1), relations=(0, 0),
        )
        text = expl.render(tiny_dataset.kg)
        assert "item0" in text and "genre2" in text


class TestSignificance:
    def test_bootstrap_contains_mean(self):
        values = np.random.default_rng(0).normal(5.0, 1.0, 200)
        mean, low, high = bootstrap_ci(values, seed=0)
        assert low < mean < high
        assert abs(mean - 5.0) < 0.3

    def test_bootstrap_empty(self):
        with pytest.raises(EvaluationError):
            bootstrap_ci(np.asarray([]))

    def test_permutation_detects_shift(self):
        rng = np.random.default_rng(0)
        a = rng.normal(1.0, 0.3, 100)
        b = rng.normal(0.0, 0.3, 100)
        assert paired_permutation_test(a, b, seed=0) < 0.01

    def test_permutation_null(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 1.0, 100)
        b = a + rng.normal(0.0, 1e-3, 100)
        assert paired_permutation_test(a, b, seed=0) > 0.05

    def test_permutation_shape_mismatch(self):
        with pytest.raises(EvaluationError):
            paired_permutation_test(np.ones(3), np.ones(4))
