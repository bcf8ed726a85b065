"""Fault isolation in ``run_panel``: one failing entry never sinks a panel."""

import itertools

import numpy as np
import pytest

from repro.core.dataset import Dataset
from repro.core.recommender import Recommender
from repro.experiments.harness import (
    PanelResult,
    results_table,
    run_panel,
)
from repro.kg.triples import TripleStore
from repro.kge import TransE
from repro.models.baselines import MostPopular, Random
from repro.runtime import guards
from repro.runtime import (
    DivergenceDetector,
    Fault,
    FaultInjector,
    FaultPlan,
    TrainingRuntime,
)


class Crashes(Recommender):
    """Raises during fit, counting its fit calls."""

    attempts = itertools.count()  # class-level so fresh factory builds share it

    def fit(self, dataset: Dataset) -> "Crashes":
        next(type(self).attempts)
        raise RuntimeError("model exploded during fit")

    def score_all(self, user_id: int) -> np.ndarray:
        return np.zeros(self.fitted_dataset.num_items)


class BadScorer(Recommender):
    """Fits fine, crashes at evaluation time."""

    def fit(self, dataset: Dataset) -> "BadScorer":
        self._mark_fitted(dataset)
        return self

    def score_all(self, user_id: int) -> np.ndarray:
        raise ValueError("scores unavailable")


class KGEBacked(Recommender):
    """A gradient-trained panel entry: TransE over the dataset's KG.

    Scores items by proximity of their entity embedding to the centroid of
    the user's training items — crude, but exercises a real autograd +
    optimizer loop inside the panel, which is what the fault injector and
    the divergence detector need.
    """

    requires_kg = True

    def __init__(self, injector: FaultInjector | None = None, epochs: int = 2) -> None:
        super().__init__()
        self._injector = injector
        self._epochs = epochs
        self._item_emb: np.ndarray | None = None

    def fit(self, dataset: Dataset) -> "KGEBacked":
        store: TripleStore = dataset.kg.store
        model = TransE(dataset.kg.num_entities, dataset.kg.num_relations,
                       dim=6, seed=0)
        model.fit(
            store, epochs=self._epochs, seed=0,
            runtime=TrainingRuntime(
                divergence=DivergenceDetector(), faults=self._injector
            ),
        )
        self._item_emb = model.entity_embeddings()[dataset.item_entities]
        self._mark_fitted(dataset)
        return self

    def score_all(self, user_id: int) -> np.ndarray:
        items = self.fitted_dataset.interactions.items_of(user_id)
        centroid = (
            self._item_emb[items].mean(axis=0)
            if items.size
            else self._item_emb.mean(axis=0)
        )
        return -np.linalg.norm(self._item_emb - centroid, axis=1)


@pytest.fixture(autouse=True)
def _reset_crash_counter():
    Crashes.attempts = itertools.count()


class TestIsolation:
    def test_failure_becomes_record_not_crash(self, movie_dataset):
        panel = run_panel(
            movie_dataset,
            {"pop": lambda: MostPopular(), "boom": lambda: Crashes()},
            max_users=8,
            seed=0,
        )
        assert isinstance(panel, PanelResult)
        assert [r.model for r in panel] == ["pop"]
        assert len(panel.failures) == 1
        record = panel.failures[0]
        assert record.model == "boom"
        assert record.phase == "fit"
        assert record.error_type == "RuntimeError"
        assert "exploded" in record.message
        assert "RuntimeError" in record.traceback
        assert not panel.ok

    def test_evaluate_phase_failure_recorded(self, movie_dataset):
        panel = run_panel(
            movie_dataset, {"bad": lambda: BadScorer()}, max_users=8, seed=0
        )
        assert panel.failures[0].phase == "evaluate"
        assert panel.failures[0].error_type == "ValueError"

    def test_failing_entry_is_fitted_once_and_not_substituted(
        self, movie_dataset
    ):
        panel = run_panel(
            movie_dataset,
            {"pop": lambda: MostPopular(), "boom": lambda: Crashes()},
            max_users=8,
            seed=0,
        )
        assert next(Crashes.attempts) == 1
        assert [r.model for r in panel] == ["pop"]
        assert [f.model for f in panel.failures] == ["boom"]

    def test_healthy_panel_matches_legacy_behavior(self, movie_dataset):
        panel = run_panel(
            movie_dataset, {"pop": lambda: MostPopular()}, max_users=8, seed=0
        )
        assert panel.ok
        assert panel.failures == []
        assert len(panel) == 1


class TestFailureTable:
    def test_failures_render_in_results_table(self, movie_dataset):
        panel = run_panel(
            movie_dataset,
            {"pop": lambda: MostPopular(), "boom": lambda: Crashes()},
            max_users=8,
            seed=0,
        )
        text = results_table(panel, columns=("AUC", "NDCG@10"))
        assert "FAILED (fit: RuntimeError)" in text
        assert "Failures:" in text
        assert "boom" in text

    def test_plain_list_still_renders(self, movie_dataset):
        results = list(
            run_panel(movie_dataset, {"pop": lambda: MostPopular()},
                      max_users=8, seed=0)
        )
        text = results_table(results, columns=("AUC",))
        assert "Failures:" not in text


class TestAcceptancePanel:
    def test_mixed_fault_panel_completes_end_to_end(self, movie_dataset, monkeypatch):
        """4+ models, one raising, one with NaN gradients.

        The panel must finish, return rows for every healthy model, and keep
        a structured record for each failed one: the crasher's error, and
        the typed divergence the detector raises on the NaN-injected model
        (at its first bad loss: the short fit has fewer bad steps than
        the detector's default patience).
        """
        monkeypatch.setattr(guards, "PATIENCE", 1)
        nan_injector = FaultInjector(
            FaultPlan([Fault(step=0, kind="nan_grad"),
                       Fault(step=1, kind="nan_grad")])
        )
        panel = run_panel(
            movie_dataset,
            {
                "MostPopular": lambda: MostPopular(),
                "Random": lambda: Random(seed=0),
                "KGE-NaN": lambda: KGEBacked(injector=nan_injector),
                "Crasher": lambda: Crashes(),
            },
            max_users=8,
            seed=0,
        )
        names = [r.model for r in panel]
        assert names == ["MostPopular", "Random"]
        assert [(f.model, f.phase, f.error_type) for f in panel.failures] == [
            ("KGE-NaN", "fit", "TrainingDivergedError"),
            ("Crasher", "fit", "RuntimeError"),
        ]
        # The NaN faults really fired before the detector stopped the fit.
        assert [f.kind for f in nan_injector.injected] == ["nan_grad", "nan_grad"]
        text = results_table(panel)
        assert "FAILED" in text
