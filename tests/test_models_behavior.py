"""Behavioral tests per model family: the things each family is *for*."""

import numpy as np
import pytest

from repro.core.splitter import random_split
from repro.data import make_movie_dataset
from repro.eval.evaluator import Evaluator
from repro.models import baselines, embedding_based, path_based, unified


@pytest.fixture(scope="module")
def split():
    data = make_movie_dataset(seed=5, num_users=40, num_items=60)
    return random_split(data, seed=5)


@pytest.fixture(scope="module")
def evaluator(split):
    train, test = split
    return Evaluator(train, test, seed=5, max_users=25)


class TestBaselines:
    def test_most_popular_ranks_by_degree(self, split):
        train, __ = split
        model = baselines.MostPopular().fit(train)
        degrees = train.interactions.item_degrees()
        top = model.recommend(0, k=3, exclude_seen=False)
        assert degrees[top[0]] == degrees.max()

    def test_itemknn_similar_item_scores_high(self, split):
        train, __ = split
        model = baselines.ItemKNN(num_neighbors=10).fit(train)
        user = int(np.argmax(train.interactions.user_degrees()))
        scores = model.score_all(user)
        assert scores.max() > 0

    def test_bpr_learns_training_preferences(self, split):
        train, __ = split
        model = baselines.BPRMF(epochs=30, seed=0).fit(train)
        # Training positives should outscore random items on average.
        diffs = []
        rng = np.random.default_rng(0)
        for user in range(10):
            scores = model.score_all(user)
            pos = train.interactions.items_of(user)
            neg = rng.integers(0, train.num_items, size=pos.size)
            diffs.append(scores[pos].mean() - scores[neg].mean())
        assert np.mean(diffs) > 0

    def test_fm_kg_features_require_kg(self):
        from repro.core.dataset import Dataset
        from repro.core.exceptions import DataError
        from repro.core.interactions import InteractionMatrix

        no_kg = Dataset(
            name="x",
            interactions=InteractionMatrix.from_pairs([(0, 0)], 2, 2),
        )
        with pytest.raises(DataError):
            baselines.FactorizationMachine(use_kg_features=True).fit(no_kg)

    def test_nmf_factors_nonnegative(self, split):
        train, __ = split
        model = baselines.NMF(iterations=30, seed=0).fit(train)
        assert (model.user_factors >= 0).all()
        assert (model.item_factors >= 0).all()


class TestEmbeddingFamily:
    def test_cfkg_scores_are_negative_distances(self, split):
        train, __ = split
        model = embedding_based.CFKG(epochs=5, seed=0).fit(train)
        assert (model.score_all(0) <= 0).all()

    def test_cfkg_explanations_validate(self, split):
        from repro.eval.explain import is_valid_explanation

        train, __ = split
        model = embedding_based.CFKG(epochs=5, seed=0).fit(train)
        for item in model.recommend(0, k=5):
            for expl in model.explain(0, int(item)):
                assert is_valid_explanation(expl, model.explanation_dataset)

    def test_mkr_cross_compress_shapes(self):
        from repro.autograd.tensor import Tensor

        unit = embedding_based.mkr.CrossCompress(4, seed=np.random.default_rng(0))
        v, e = unit(Tensor(np.ones((3, 4))), Tensor(np.ones((3, 4))))
        assert v.shape == (3, 4) and e.shape == (3, 4)

    def test_ktup_preference_attention_sums_to_one(self, split):
        from repro.autograd.tensor import Tensor
        from repro.autograd import ops

        train, __ = split
        model = embedding_based.KTUP(epochs=1, seed=0).fit(train)
        u = model.user(np.asarray([0, 1]))
        v = model._item_latent(np.asarray([0, 1]))
        batch = 2
        p = model.preference.weight
        diff = (
            u.reshape(batch, 1, model.dim)
            + p.reshape(1, model.num_preferences, model.dim)
            - v.reshape(batch, 1, model.dim)
        )
        weights = ops.softmax(-(diff * diff).sum(axis=2), axis=1).numpy()
        np.testing.assert_allclose(weights.sum(axis=1), np.ones(2))

    def test_sed_distance_semantics(self, split):
        train, __ = split
        model = embedding_based.SED().fit(train)
        # Distances are within [0, max_distance]; diagonal zero.
        assert model._distances.min() >= 0
        assert (np.diag(model._distances) == 0).all()

    def test_dkn_uses_text_when_available(self, news_dataset):
        train, __ = random_split(news_dataset, seed=0)
        model = embedding_based.DKN(epochs=1, kge_epochs=2, seed=0).fit(train)
        assert model._word_seq.shape[0] == news_dataset.num_items

    def test_ktgan_generator_probabilities(self, split):
        train, __ = split
        model = embedding_based.KTGAN(epochs=2, kge_epochs=2, seed=0).fit(train)
        p = model._g_probs(0)
        assert p.shape == (train.num_items,)
        np.testing.assert_allclose(p.sum(), 1.0)


class TestPathFamily:
    def test_heterec_theta_learned(self, split):
        train, __ = split
        model = path_based.HeteRec(seed=0).fit(train)
        assert model.theta is not None
        assert np.isfinite(model.theta).all()

    def test_heterec_p_cluster_weights(self, split):
        train, __ = split
        model = path_based.HeteRecP(num_clusters=3, seed=0).fit(train)
        assert model._cluster_theta.shape[0] == 3

    def test_kmeans_assigns_all(self):
        points = np.random.default_rng(0).normal(size=(30, 4))
        assignments, centroids = path_based.kmeans(points, 4, seed=0)
        assert assignments.shape == (30,)
        assert set(assignments.tolist()) <= {0, 1, 2, 3}

    def test_kmeans_k_too_large(self):
        from repro.core.exceptions import ConfigError

        with pytest.raises(ConfigError):
            path_based.kmeans(np.zeros((2, 2)), 5)

    def test_rulerec_weights_nonnegative(self, split):
        train, __ = split
        model = path_based.RuleRec(rule_epochs=5, mf_epochs=3, seed=0).fit(train)
        assert (model.rule_weights >= 0).all()

    def test_rulerec_explanation_cites_rule(self, split):
        train, __ = split
        model = path_based.RuleRec(rule_epochs=5, mf_epochs=3, seed=0).fit(train)
        recs = model.recommend(0, k=5)
        explained = [model.explain(0, int(v)) for v in recs]
        assert any(e for e in explained)
        for group in explained:
            for expl in group:
                assert expl.kind == "rule"
                assert "rule" in expl.detail

    def test_proppr_scores_are_probabilities(self, split):
        train, __ = split
        model = path_based.ProPPR(weight_rounds=0, iterations=8, seed=0).fit(train)
        scores = model.score_all(0)
        assert (scores >= 0).all()
        assert scores.sum() <= 1.0 + 1e-9

    def test_pgpr_explanations_end_at_item(self, split):
        train, __ = split
        model = path_based.PGPR(epochs=1, kge_epochs=2, seed=0).fit(train)
        lifted = model._lifted
        for item in model.recommend(0, k=5):
            for expl in model.explain(0, int(item)):
                assert expl.entities[-1] == int(lifted.item_entities[item])
                assert expl.entities[0] == int(lifted.user_entities[0])

    def test_path_bank_excludes_direct_edge(self, split):
        """The trivial user->item interact edge must not leak into paths."""
        train, __ = split
        model = path_based.RKGE(epochs=1, seed=0).fit(train)
        user = 0
        for item in train.interactions.items_of(user)[:3]:
            for path in model._bank.paths(user, int(item)):
                assert path.length >= 2


class TestUnifiedFamily:
    def test_ripplenet_hop_arrays_are_facts(self, split):
        train, __ = split
        model = unified.RippleNet(epochs=1, ripple_size=8, seed=0).fit(train)
        kg = train.kg
        for user in range(3):
            for hop in range(model.hops):
                mask = model._mask[user, hop] > 0
                heads = model._heads[user, hop][mask]
                rels = model._rels[user, hop][mask]
                tails = model._tails[user, hop][mask]
                for fact in zip(heads, rels, tails):
                    assert tuple(int(x) for x in fact) in kg.store

    def test_kgcn_receptive_field_entities_valid(self, split):
        train, __ = split
        model = unified.KGCN(epochs=1, num_neighbors=4, hops=2, seed=0).fit(train)
        kg = train.kg
        assert len(model._ent_hops) == 3
        assert model._ent_hops[1].shape == (train.num_items, 4)
        assert model._ent_hops[2].shape == (train.num_items, 16)
        assert model._ent_hops[1].max() < kg.num_entities

    @pytest.mark.parametrize("agg", unified.AGGREGATORS)
    def test_kgcn_all_aggregators_run(self, split, agg):
        train, __ = split
        model = unified.KGCN(epochs=1, aggregator=agg, num_neighbors=4, seed=0)
        scores = model.fit(train).score_all(0)
        assert np.isfinite(scores).all()

    def test_kgcn_bad_aggregator(self):
        from repro.core.exceptions import ConfigError

        with pytest.raises(ConfigError):
            unified.KGCN(aggregator="nope")

    def test_kgat_explanations_on_lifted_graph(self, split):
        from repro.eval.explain import is_valid_explanation

        train, __ = split
        model = unified.KGAT(epochs=1, pretrain_epochs=2, seed=0).fit(train)
        found_any = False
        for item in model.recommend(0, k=5):
            for expl in model.explain(0, int(item)):
                found_any = True
                assert is_valid_explanation(expl, model.explanation_dataset)
        assert found_any

    def test_requires_kg_enforced(self):
        from repro.core.dataset import Dataset
        from repro.core.exceptions import DataError
        from repro.core.interactions import InteractionMatrix

        no_kg = Dataset(
            name="x", interactions=InteractionMatrix.from_pairs([(0, 0), (1, 1)], 2, 2)
        )
        with pytest.raises(DataError):
            unified.RippleNet(epochs=1).fit(no_kg)

    def test_multitask_weight_zero_disables_extra_loss(self, split):
        train, __ = split
        model = embedding_based.KTUP(epochs=1, kg_weight=0.0, seed=0).fit(train)
        assert model._extra_loss(np.random.default_rng(0), 4) is None
