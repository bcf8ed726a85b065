"""Process-pool panel executor: row equivalence, crash isolation, telemetry.

The contract under test is strict: ``run_panel(executor="process")`` must
produce *row-for-row identical* results to the sequential executor for the
same seed — successes and failure records included — because both
executors run the same ``_execute_entry`` code path over a split computed
once in the parent.
"""

import os

import numpy as np
import pytest

from repro.core.dataset import Dataset
from repro.core.exceptions import ConfigError
from repro.core.recommender import Recommender
from repro.experiments.harness import run_panel, results_table
from repro.experiments.parallel import fork_available
from repro.models.baselines import BPRMF, MostPopular, Random
from repro.telemetry import Telemetry, activated
from repro.telemetry.export import export_records, validate_records

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process executor needs fork"
)


class Boom(Recommender):
    """Always raises during fit."""

    def fit(self, dataset: Dataset) -> "Boom":
        raise RuntimeError("model exploded during fit")

    def score_all(self, user_id: int) -> np.ndarray:  # pragma: no cover
        return np.zeros(self.fitted_dataset.num_items)


class Dies(Recommender):
    """Kills the worker process outright (no exception to pickle back)."""

    def fit(self, dataset: Dataset) -> "Dies":
        os._exit(17)

    def score_all(self, user_id: int) -> np.ndarray:  # pragma: no cover
        return np.zeros(self.fitted_dataset.num_items)


def _row_key(r):
    return (r.model, tuple(sorted(r.values.items())))


def _failure_key(f):
    return (f.model, f.phase, f.error_type, f.message)


def _run_both(dataset, factories):
    seq = run_panel(dataset, factories, max_users=10, seed=0)
    par = run_panel(
        dataset, factories, max_users=10, seed=0,
        executor="process", max_workers=2,
    )
    return seq, par


class TestEquivalence:
    def test_rows_identical_to_sequential(self, movie_dataset):
        factories = {
            "pop": lambda: MostPopular(),
            "rand": lambda: Random(seed=3),
            "bpr": lambda: BPRMF(epochs=4, seed=1),
        }
        seq, par = _run_both(movie_dataset, factories)
        assert [_row_key(r) for r in par] == [_row_key(r) for r in seq]
        assert seq.ok and par.ok
        assert results_table(par) == results_table(seq)

    def test_failures_identical(self, movie_dataset):
        factories = {
            "pop": lambda: MostPopular(),
            "boom": lambda: Boom(),
            "bpr": lambda: BPRMF(epochs=4, seed=1),
        }
        seq, par = _run_both(movie_dataset, factories)
        assert [_row_key(r) for r in par] == [_row_key(r) for r in seq]
        assert [r.model for r in par] == ["pop", "bpr"]
        assert [_failure_key(f) for f in par.failures] == [
            _failure_key(f) for f in seq.failures
        ]
        assert par.failures[0].model == "boom"
        assert "RuntimeError" in par.failures[0].traceback


class TestCrashIsolation:
    def test_dead_worker_becomes_failure_record(self, movie_dataset):
        factories = {
            "pop": lambda: MostPopular(),
            "dies": lambda: Dies(),
            "bpr": lambda: BPRMF(epochs=4, seed=1),
        }
        panel = run_panel(movie_dataset, factories, max_users=10, seed=0,
                          executor="process", max_workers=2)
        assert [r.model for r in panel] == ["pop", "bpr"]
        (failure,) = panel.failures
        assert failure.model == "dies"
        assert failure.error_type == "WorkerCrashed"


class TestTelemetryMerge:
    def test_child_spans_merged_and_valid(self, movie_dataset):
        factories = {
            "pop": lambda: MostPopular(),
            "boom": lambda: Boom(),
            "bpr": lambda: BPRMF(epochs=4, seed=1),
        }
        tel = Telemetry()
        with activated(tel):
            panel = run_panel(movie_dataset, factories, max_users=10, seed=0,
                              executor="process", max_workers=2)
        records = tel.tracer.records()
        assert validate_records(export_records(tel)) == []

        by_id = {r.span_id: r for r in records}
        (panel_span,) = [r for r in records if r.name == "panel"]
        assert panel_span.attrs["executor"] == "process"
        assert panel_span.attrs["workers"] == 2

        model_spans = [r for r in records if r.name == "panel/model"]
        assert {r.attrs["model"] for r in model_spans} == {"pop", "boom", "bpr"}
        # Child roots are re-parented under the parent panel span.
        assert all(r.parent_id == panel_span.span_id for r in model_spans)
        # Child clocks are re-based onto the parent timeline.
        assert all(
            panel_span.start <= r.start <= r.end for r in model_spans
        )

        # The failure joins to its remapped span.
        (failure,) = panel.failures
        assert failure.span_id in by_id
        joined = by_id[failure.span_id]
        assert joined.name == "panel/model"
        assert joined.attrs["model"] == "boom"
        assert joined.attrs["outcome"] == "failed"

        # Parent-side counters reconcile with the merged outcome.
        assert tel.counter("panel.models_ok").value == 2
        assert tel.counter("panel.models_failed").value == 1


class TestValidation:
    def test_unknown_executor_rejected(self, movie_dataset):
        with pytest.raises(ConfigError, match="unknown executor"):
            run_panel(movie_dataset, {"pop": lambda: MostPopular()},
                      executor="threads")

    def test_empty_panel(self, movie_dataset):
        panel = run_panel(movie_dataset, {}, executor="process")
        assert list(panel) == [] and panel.ok
