"""Tests for the KGE substrate: training, scoring, link prediction."""

import numpy as np
import pytest

from repro.core.exceptions import ConfigError
from repro.kg.completion import evaluate_link_prediction
from repro.kg.triples import TripleStore
from repro.kge import KGE_MODELS, ComplEx, DistMult, TransD, TransE, TransH, TransR


@pytest.fixture(scope="module")
def clustered_store():
    """A KG with two clusters sharing hubs; relation 0 only."""
    rng = np.random.default_rng(0)
    triples = []
    for e in range(1, 10):
        triples.append((e, 0, 0))  # cluster A hub 0
    for e in range(11, 20):
        triples.append((e, 0, 10))  # cluster B hub 10
    triples += [(1, 1, 2), (3, 1, 4), (11, 1, 12)]
    return TripleStore.from_triples(triples, 20, 2)


class TestTrainingContracts:
    @pytest.mark.parametrize("name", list(KGE_MODELS))
    def test_loss_decreases(self, name, clustered_store):
        model = KGE_MODELS[name](20, 2, dim=8, seed=0)
        history = model.fit(clustered_store, epochs=8, seed=0)
        assert history[-1] < history[0]
        assert model.is_fitted

    @pytest.mark.parametrize("name", list(KGE_MODELS))
    def test_true_beats_random_triples(self, name, clustered_store):
        model = KGE_MODELS[name](20, 2, dim=8, seed=0)
        model.fit(clustered_store, epochs=20, seed=0)
        true_scores = model.score_triples(
            clustered_store.heads, clustered_store.relations, clustered_store.tails
        )
        rng = np.random.default_rng(1)
        fake = np.stack(
            [rng.integers(0, 20, 50), rng.integers(0, 2, 50), rng.integers(0, 20, 50)],
            axis=1,
        )
        fake = np.asarray(
            [f for f in fake if tuple(f) not in clustered_store][:30]
        )
        fake_scores = model.score_triples(fake[:, 0], fake[:, 1], fake[:, 2])
        assert true_scores.mean() > fake_scores.mean()

    def test_deterministic_given_seed(self, clustered_store):
        a = TransE(20, 2, dim=6, seed=3)
        a.fit(clustered_store, epochs=3, seed=3)
        b = TransE(20, 2, dim=6, seed=3)
        b.fit(clustered_store, epochs=3, seed=3)
        np.testing.assert_allclose(a.entity_embeddings(), b.entity_embeddings())

    def test_empty_store_rejected(self):
        empty = TripleStore.from_triples([], 3, 1)
        with pytest.raises(ConfigError):
            TransE(3, 1, dim=4).fit(empty)

    def test_invalid_dim(self):
        with pytest.raises(ConfigError):
            TransE(3, 1, dim=0)

    def test_transe_entities_normalized(self, clustered_store):
        model = TransE(20, 2, dim=6, seed=0)
        model.fit(clustered_store, epochs=2, seed=0)
        norms = np.linalg.norm(model.entity_embeddings(), axis=1)
        assert (norms <= 1.0 + 1e-9).all()

    def test_complex_embedding_width(self):
        model = ComplEx(5, 2, dim=4, seed=0)
        assert model.entity_embeddings().shape == (5, 8)


class TestScoreSemantics:
    def test_transe_translation_identity(self):
        """score(h, r, t) is maximal when t = h + r exactly."""
        model = TransE(3, 1, dim=4, seed=0)
        model.entity.weight.data[0] = [1.0, 0.0, 0.0, 0.0]
        model.relation.weight.data[0] = [0.0, 1.0, 0.0, 0.0]
        model.entity.weight.data[1] = [1.0, 1.0, 0.0, 0.0]  # = h + r
        model.entity.weight.data[2] = [0.0, 0.0, 5.0, 0.0]
        scores = model.score_triples([0, 0], [0, 0], [1, 2])
        assert scores[0] == pytest.approx(0.0)
        assert scores[0] > scores[1]

    def test_distmult_symmetric_relation(self):
        model = DistMult(4, 1, dim=6, seed=0)
        s1 = model.score_triples([0], [0], [1])
        s2 = model.score_triples([1], [0], [0])
        np.testing.assert_allclose(s1, s2)  # DistMult cannot break symmetry

    def test_complex_handles_asymmetry(self):
        model = ComplEx(4, 1, dim=6, seed=0)
        s1 = model.score_triples([0], [0], [1])
        s2 = model.score_triples([1], [0], [0])
        assert not np.allclose(s1, s2)

    @pytest.mark.parametrize("cls", [TransH, TransR, TransD])
    def test_projection_models_score_shape(self, cls):
        model = cls(6, 2, dim=5, seed=0)
        scores = model.score_triples([0, 1, 2], [0, 1, 0], [3, 4, 5])
        assert scores.shape == (3,)


class TestLinkPrediction:
    def test_perfect_scorer_gets_mrr_one(self, clustered_store):
        facts = {tuple(t) for t in clustered_store.triples().tolist()}

        def oracle(h, r, t):
            return np.asarray(
                [1.0 if (hh, rr, tt) in facts else 0.0 for hh, rr, tt in zip(h, r, t)]
            )

        result = evaluate_link_prediction(
            oracle, clustered_store.triples()[:5], clustered_store, 20
        )
        assert result.mrr == pytest.approx(1.0)
        assert result.hits_at_1 == pytest.approx(1.0)

    def test_random_scorer_near_chance(self, clustered_store):
        rng = np.random.default_rng(0)

        def random_scorer(h, r, t):
            return rng.random(len(h))

        result = evaluate_link_prediction(
            random_scorer, clustered_store.triples(), clustered_store, 20
        )
        assert 2.0 < result.mean_rank < 18.0

    def test_trained_model_beats_random(self, clustered_store):
        model = TransE(20, 2, dim=8, seed=0)
        model.fit(clustered_store, epochs=25, seed=0)
        trained = evaluate_link_prediction(
            model.score_triples, clustered_store.triples()[:10], clustered_store, 20
        )
        rng = np.random.default_rng(0)
        random_result = evaluate_link_prediction(
            lambda h, r, t: rng.random(len(h)),
            clustered_store.triples()[:10],
            clustered_store,
            20,
        )
        assert trained.mrr > random_result.mrr

    def test_empty_test_rejected(self, clustered_store):
        from repro.core.exceptions import EvaluationError

        with pytest.raises(EvaluationError):
            evaluate_link_prediction(
                lambda h, r, t: np.zeros(len(h)),
                np.empty((0, 3), dtype=np.int64),
                clustered_store,
                20,
            )
