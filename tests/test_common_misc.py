"""Coverage for the training scaffold, rng helpers, and misc core APIs."""

import numpy as np
import pytest

from repro.autograd import nn
from repro.core.exceptions import ConfigError, DataError
from repro.core.recommender import Explanation
from repro.core.rng import ensure_rng
from repro.models.common import GradientRecommender


class DotModel(GradientRecommender):
    """Minimal embedding-dot model for exercising the scaffold."""

    def _build(self, dataset, rng):
        self.user = nn.Embedding(dataset.num_users, self.dim, seed=rng)
        self.item = nn.Embedding(dataset.num_items, self.dim, seed=rng)

    def _score_batch(self, users, items):
        return (self.user(users) * self.item(items)).sum(axis=1)


class TestGradientScaffold:
    def test_loss_history_length(self, movie_split):
        train, __ = movie_split
        model = DotModel(epochs=4, seed=0).fit(train)
        assert len(model.loss_history) == 4

    def test_bpr_loss_decreases(self, movie_split):
        train, __ = movie_split
        model = DotModel(epochs=8, loss="bpr", seed=0).fit(train)
        assert model.loss_history[-1] < model.loss_history[0]

    def test_bce_loss_decreases(self, movie_split):
        train, __ = movie_split
        model = DotModel(epochs=8, loss="bce", num_negatives=2, seed=0).fit(train)
        assert model.loss_history[-1] < model.loss_history[0]

    def test_invalid_loss(self):
        with pytest.raises(ConfigError):
            DotModel(loss="hinge")

    def test_invalid_dim(self):
        with pytest.raises(ConfigError):
            DotModel(dim=0)

    def test_empty_interactions_rejected(self, movie_dataset):
        from repro.core.interactions import InteractionMatrix

        empty = movie_dataset.with_interactions(
            InteractionMatrix.empty(movie_dataset.num_users, movie_dataset.num_items)
        )
        with pytest.raises(DataError):
            DotModel(epochs=1).fit(empty)

    def test_score_all_chunking_consistent(self, movie_split):
        train, __ = movie_split
        model = DotModel(epochs=1, seed=0).fit(train)
        scores = model.score_all(0)
        manual = (
            model.item.weight.data @ model.user.weight.data[0]
        )
        np.testing.assert_allclose(scores, manual, rtol=1e-10)

    def test_parameters_registered(self, movie_split):
        train, __ = movie_split
        model = DotModel(epochs=1, seed=0).fit(train)
        assert len(model.parameters()) == 2


class TestRngHelpers:
    def test_ensure_rng_passthrough(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng

    def test_ensure_rng_from_int_deterministic(self):
        a = ensure_rng(42).random(3)
        b = ensure_rng(42).random(3)
        np.testing.assert_allclose(a, b)


class TestExplanationRendering:
    def test_render_without_kg(self):
        expl = Explanation(
            user_id=0, item_id=1, kind="path", score=0.5,
            entities=(0, 2, 1), relations=(0, 1),
        )
        text = expl.render()
        assert "e0" in text and "r1" in text

    def test_render_detail_only(self):
        expl = Explanation(
            user_id=0, item_id=1, kind="rule", score=0.5, detail="because rule 3"
        )
        assert expl.render() == "because rule 3"

    def test_render_fallback_without_detail(self):
        expl = Explanation(user_id=0, item_id=1, kind="similarity", score=0.25)
        assert "similarity" in expl.render()


class TestRecommendAPI:
    def test_recommend_k_larger_than_catalog(self, movie_split):
        train, __ = movie_split
        model = DotModel(epochs=1, seed=0).fit(train)
        recs = model.recommend(0, k=10_000)
        assert recs.size <= train.num_items

    def test_recommend_include_seen(self, movie_split):
        train, __ = movie_split
        model = DotModel(epochs=1, seed=0).fit(train)
        all_items = model.recommend(0, k=train.num_items, exclude_seen=False)
        assert all_items.size == train.num_items

    def test_predict_shape_mismatch(self, movie_split):
        train, __ = movie_split
        model = DotModel(epochs=1, seed=0).fit(train)
        with pytest.raises(DataError):
            model.predict(np.asarray([0, 1]), np.asarray([0]))
