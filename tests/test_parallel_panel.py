"""Process-pool panel executor: row equivalence, crash isolation, telemetry.

The contract under test is strict: ``run_panel(executor="process")`` must
produce *row-for-row identical* results to the sequential executor for the
same seed — successes, failures, fallback substitutions, retry outcomes,
and time-budget enforcement included — because both executors run the same
``_execute_entry`` code path over a split computed once in the parent.
"""

import itertools
import os

import numpy as np
import pytest

from repro.core.dataset import Dataset
from repro.core.exceptions import ConfigError
from repro.core.recommender import Recommender
from repro.experiments.harness import run_panel, results_table
from repro.experiments.parallel import derive_entry_seed, fork_available
from repro.models.baselines import BPRMF, MostPopular, Random
from repro.runtime import RetryPolicy
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


class Flaky(Recommender):
    """Fails the first ``fail_times`` fit calls (per-process counter)."""

    attempts = itertools.count()

    def __init__(self, fail_times: int = 1) -> None:
        super().__init__()
        self._fail_times = fail_times

    def fit(self, dataset: Dataset) -> "Flaky":
        if next(type(self).attempts) < self._fail_times:
            raise RuntimeError("transient failure")
        self._mark_fitted(dataset)
        return self

    def score_all(self, user_id: int) -> np.ndarray:
        return np.zeros(self.fitted_dataset.num_items)


class SlowFit(Recommender):
    """Advances the injected clock by ``cost`` during fit."""

    def __init__(self, ticker, cost: float) -> None:
        super().__init__()
        self._ticker = ticker
        self._cost = cost

    def fit(self, dataset: Dataset) -> "SlowFit":
        self._ticker.advance(self._cost)
        self._mark_fitted(dataset)
        return self

    def score_all(self, user_id: int) -> np.ndarray:
        return np.zeros(self.fitted_dataset.num_items)


class Dies(Recommender):
    """Kills the worker process outright (no exception to pickle back)."""

    def fit(self, dataset: Dataset) -> "Dies":
        os._exit(17)

    def score_all(self, user_id: int) -> np.ndarray:  # pragma: no cover
        return np.zeros(self.fitted_dataset.num_items)


class Ticker:
    """Deterministic manual clock shared through fork inheritance."""

    def __init__(self) -> None:
        self.now = 0.0

    def clock(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def _row_key(r):
    return (r.model, tuple(sorted(r.values.items())))


def _failure_key(f):
    return (f.model, f.phase, f.error_type, f.message, f.attempts, f.fallback)


def _run_both(dataset, factories, **kwargs):
    seq = run_panel(dataset, factories, max_users=10, seed=0, **kwargs)
    par = run_panel(
        dataset, factories, max_users=10, seed=0,
        executor="process", max_workers=2, **kwargs,
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

    def test_failures_and_fallback_identical(self, movie_dataset):
        factories = {
            "pop": lambda: MostPopular(),
            "boom": lambda: Boom(),
            "bpr": lambda: BPRMF(epochs=4, seed=1),
        }
        seq, par = _run_both(movie_dataset, factories, fallback="MostPopular")
        assert [_row_key(r) for r in par] == [_row_key(r) for r in seq]
        assert [r.model for r in par] == [
            "pop", "boom (fallback: MostPopular)", "bpr",
        ]
        assert [_failure_key(f) for f in par.failures] == [
            _failure_key(f) for f in seq.failures
        ]
        assert par.failures[0].fallback == "boom (fallback: MostPopular)"
        assert "RuntimeError" in par.failures[0].traceback

    def test_retry_then_success_identical(self, movie_dataset):
        factories = {"flaky": lambda: Flaky(fail_times=1)}
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)

        Flaky.attempts = itertools.count()
        seq = run_panel(movie_dataset, factories, max_users=10, seed=0,
                        retry=policy)
        Flaky.attempts = itertools.count()
        # The worker forks *after* the reset, so the child's counter starts
        # from the same state the sequential run saw.
        par = run_panel(movie_dataset, factories, max_users=10, seed=0,
                        retry=policy, executor="process", max_workers=2)
        assert [_row_key(r) for r in par] == [_row_key(r) for r in seq]
        assert seq.ok and par.ok

    def test_time_budget_exceeded_identical(self, movie_dataset):
        def build(ticker):
            return {
                "slow": lambda: SlowFit(ticker, cost=45.0),
                "quick": lambda: SlowFit(ticker, cost=1.0),
            }

        t1, t2 = Ticker(), Ticker()
        seq = run_panel(movie_dataset, build(t1), max_users=10, seed=0,
                        time_budget=30.0, clock=t1.clock)
        par = run_panel(movie_dataset, build(t2), max_users=10, seed=0,
                        time_budget=30.0, clock=t2.clock,
                        executor="process", max_workers=2)
        for panel in (seq, par):
            assert [r.model for r in panel] == ["quick"]
            (failure,) = panel.failures
            assert failure.model == "slow"
            assert failure.error_type == "TimeBudgetExceeded"
            assert failure.fit_elapsed == pytest.approx(45.0)
        assert [_failure_key(f) for f in par.failures] == [
            _failure_key(f) for f in seq.failures
        ]


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


class TestSequentialBudgetSemantics:
    def test_time_budget_judges_fit_not_backoff_sleep(self, movie_dataset):
        """Satellite fix: retry backoff no longer counts against the budget."""
        ticker = Ticker()
        policy = RetryPolicy(
            max_attempts=2, base_delay=100.0, jitter=0.0,
            sleep=ticker.advance, clock=ticker.clock,
        )
        Flaky.attempts = itertools.count()

        def flaky_slow():
            model = Flaky(fail_times=1)
            original_fit = model.fit

            def fit(dataset):
                ticker.advance(5.0)
                return original_fit(dataset)

            model.fit = fit
            return model

        panel = run_panel(
            movie_dataset, {"flaky": flaky_slow}, max_users=10, seed=0,
            retry=policy, time_budget=30.0, clock=ticker.clock,
        )
        # Attempt 1 fails after 5s of fit; the policy sleeps 100s; attempt 2
        # fits in 5s.  Budget (30s) judges the 5s fit, not the 110s total.
        assert panel.ok
        assert [r.model for r in panel] == ["flaky"]

    def test_failure_elapsed_includes_sleep_but_fit_elapsed_does_not(
        self, movie_dataset
    ):
        ticker = Ticker()
        policy = RetryPolicy(
            max_attempts=2, base_delay=100.0, max_delay=100.0, jitter=0.0,
            sleep=ticker.advance, clock=ticker.clock,
        )

        def boom_slow():
            model = Boom()
            original_fit = model.fit

            def fit(dataset):
                ticker.advance(5.0)
                return original_fit(dataset)

            model.fit = fit
            return model

        panel = run_panel(
            movie_dataset, {"boom": boom_slow}, max_users=10, seed=0,
            retry=policy, clock=ticker.clock,
        )
        (failure,) = panel.failures
        assert failure.attempts == 2
        # Total cost: 5s fit + 100s sleep + 5s fit.
        assert failure.elapsed == pytest.approx(110.0)
        # But the budgeted quantity is the last attempt's fit alone.
        assert failure.fit_elapsed == pytest.approx(5.0)


class TestValidation:
    def test_unknown_executor_rejected(self, movie_dataset):
        with pytest.raises(ConfigError, match="unknown executor"):
            run_panel(movie_dataset, {"pop": lambda: MostPopular()},
                      executor="threads")

    def test_process_requires_isolation(self, movie_dataset):
        with pytest.raises(ConfigError, match="isolate"):
            run_panel(movie_dataset, {"pop": lambda: MostPopular()},
                      executor="process", isolate=False)

    def test_empty_panel(self, movie_dataset):
        panel = run_panel(movie_dataset, {}, executor="process")
        assert list(panel) == [] and panel.ok

    def test_derive_entry_seed_decorrelates(self):
        seeds = [derive_entry_seed(0, i) for i in range(64)]
        assert len(set(seeds)) == 64
        assert seeds == [derive_entry_seed(0, i) for i in range(64)]
        assert derive_entry_seed(1, 0) != derive_entry_seed(0, 0)
