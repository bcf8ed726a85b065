"""Experiment harness: run model panels and collect comparable rows.

Every comparative study reduces to the same loop — generate a dataset,
split, fit a panel of models, evaluate on identical candidate sets — which
:func:`run_panel` implements once.  Studies in
:mod:`repro.experiments.comparative` build on it.

Panels are *fault-isolated* by default: one model diverging or crashing no
longer aborts the whole study.  A failing entry becomes a structured
:class:`FailureRecord` on the returned :class:`PanelResult` (which still
behaves as the historical ``list[EvalResult]``), optionally after retries
via :class:`~repro.runtime.retry.RetryPolicy`, and optionally replaced by
a registered fallback baseline so downstream tables keep a row for every
panel entry.  See ``docs/robustness.md``.

Panels can also run their entries in a **process pool**
(``executor="process"``): every entry fits and evaluates in a forked
worker with the retry/time-budget/fallback machinery intact, producing
row-for-row identical results to the sequential executor.  See
:mod:`repro.experiments.parallel` and ``docs/performance.md``.
"""

from __future__ import annotations

import dataclasses
import time
import traceback as traceback_module
from dataclasses import dataclass
from typing import Callable

from repro.core.dataset import Dataset
from repro.core.exceptions import ConfigError
from repro.core.recommender import Recommender
from repro.core.registry import get_model_class
from repro.core.splitter import random_split
from repro.eval.evaluator import EvalResult, Evaluator
from repro.runtime.retry import RetryPolicy
from repro.telemetry.base import get_active

from .tables import render_table

__all__ = ["run_panel", "results_table", "PanelResult", "FailureRecord"]


@dataclass(frozen=True)
class FailureRecord:
    """Structured account of one panel entry that could not be evaluated."""

    model: str
    phase: str  # "fit" or "evaluate"
    error_type: str
    message: str
    traceback: str = ""
    attempts: int = 1
    #: Wall-clock from entry start to failure, *including* retry backoff
    #: sleeps — the user-facing "how long did this entry cost me" number.
    elapsed: float = 0.0
    #: Duration of the last fit attempt alone (no backoff sleeps, no
    #: evaluation).  This is what ``time_budget`` judges, so a retried
    #: model is budgeted on its fit work rather than on sleep.
    fit_elapsed: float = 0.0
    #: Name of the substituted fallback row in the results, when degradation
    #: was enabled and succeeded.
    fallback: str | None = None
    #: Id of this entry's ``panel/model`` telemetry span, when the panel ran
    #: with telemetry — lets a trace consumer join the failure to its exact
    #: timed span (and every child span recorded during the failing fit).
    #: For process-pool panels the id is already remapped into the parent
    #: trace's id space.
    span_id: int | None = None

    def describe(self) -> str:
        out = (
            f"{self.model}: {self.phase} failed after {self.attempts} "
            f"attempt(s) in {self.elapsed:.2f}s: {self.error_type}: {self.message}"
        )
        if self.fallback:
            out += f" (fallback row: {self.fallback!r})"
        return out


class PanelResult(list):
    """``list[EvalResult]`` plus the failures met while producing it."""

    def __init__(self, results=(), failures: list[FailureRecord] | None = None) -> None:
        super().__init__(results)
        self.failures: list[FailureRecord] = list(failures or [])

    @property
    def ok(self) -> bool:
        return not self.failures


def _resolve_fallback(
    fallback: str | Callable[[], Recommender] | None,
) -> tuple[str, Callable[[], Recommender]] | None:
    if fallback is None:
        return None
    if isinstance(fallback, str):
        cls = get_model_class(fallback)
        return fallback, cls
    name = getattr(fallback, "__name__", type(fallback).__name__)
    return name, fallback


def _resolve_retry(retry: RetryPolicy | int | None) -> RetryPolicy:
    if retry is None:
        return RetryPolicy(max_attempts=1)
    if isinstance(retry, int):
        # No real sleeping inside a panel unless the caller asks for it.
        return RetryPolicy(max_attempts=retry, base_delay=0.0, jitter=0.0)
    return retry


def _execute_entry(
    name: str,
    factory: Callable[[], Recommender],
    train: Dataset,
    evaluator: Evaluator,
    policy: RetryPolicy,
    time_budget: float | None,
    fallback_entry: tuple[str, Callable[[], Recommender]] | None,
    clock: Callable[[], float],
    tel,
    isolate: bool,
) -> tuple[list[EvalResult], FailureRecord | None]:
    """Fit + evaluate one panel entry under the full resilience machinery.

    Returns ``(rows, failure)``: zero or one :class:`EvalResult` rows (the
    entry's row on success, the fallback's row on degraded failure) and the
    :class:`FailureRecord` when the entry failed.  This is the single code
    path shared by the sequential loop and the process-pool workers, which
    is what makes the two executors row-for-row identical by construction.
    """
    enabled = tel.enabled
    phase = "fit"
    attempts = 0
    last_fit_elapsed = 0.0
    start = clock()
    model_span = tel.begin("panel/model", model=name) if enabled else None
    results: list[EvalResult] = []

    def fit_once() -> Recommender:
        nonlocal attempts, last_fit_elapsed
        attempts += 1
        fit_start = clock()
        try:
            model = factory()
            model.fit(train)
        finally:
            # Per-attempt fit time, recorded even on failure: time_budget
            # judges fit work, not the policy's backoff sleeps.
            last_fit_elapsed = clock() - fit_start
        return model

    try:
        model = policy.call(fit_once)
        if time_budget is not None and last_fit_elapsed > time_budget:
            raise TimeoutError(
                f"fit took {last_fit_elapsed:.2f}s, budget is {time_budget:.2f}s"
            )
        phase = "evaluate"
        results.append(evaluator.evaluate(model, name=name))
        if model_span is not None:
            tel.counter("panel.models_ok").inc()
            tel.end(model_span, outcome="ok", attempts=attempts)
        return results, None
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        elapsed = clock() - start
        if not isolate:
            if model_span is not None:
                tel.end(
                    model_span, outcome="failed", phase=phase,
                    error_type=type(exc).__name__,
                )
            if hasattr(exc, "add_note"):
                exc.add_note(
                    f"while running panel entry {name!r} (phase: {phase})"
                )
            raise
        error_type = (
            "TimeBudgetExceeded"
            if isinstance(exc, TimeoutError)
            else type(exc).__name__
        )
        record = FailureRecord(
            model=name,
            phase=phase,
            error_type=error_type,
            message=str(exc),
            traceback=traceback_module.format_exc(),
            attempts=attempts,
            elapsed=elapsed,
            fit_elapsed=last_fit_elapsed,
            span_id=model_span.span_id if model_span is not None else None,
        )
        if fallback_entry is not None:
            fb_name, fb_factory = fallback_entry
            row_name = f"{name} (fallback: {fb_name})"
            try:
                fb_model = fb_factory()
                fb_model.fit(train)
                results.append(evaluator.evaluate(fb_model, name=row_name))
                record = dataclasses.replace(record, fallback=row_name)
            except Exception:  # noqa: BLE001 - fallback is best-effort
                pass
        if model_span is not None:
            tel.counter("panel.models_failed").inc()
            tel.end(
                model_span, outcome="failed", phase=phase,
                error_type=error_type, attempts=attempts,
                fallback=record.fallback,
            )
        return results, record


def run_panel(
    dataset: Dataset,
    model_factories: dict[str, Callable[[], Recommender]],
    test_fraction: float = 0.2,
    k_values: tuple[int, ...] = (5, 10),
    max_users: int | None = 50,
    seed: int = 0,
    *,
    isolate: bool = True,
    retry: RetryPolicy | int | None = None,
    time_budget: float | None = None,
    fallback: str | Callable[[], Recommender] | None = None,
    clock: Callable[[], float] = time.monotonic,
    executor: str = "sequential",
    max_workers: int | None = None,
) -> PanelResult:
    """Split ``dataset`` and evaluate every model on the identical split.

    The active telemetry (installed with :func:`repro.telemetry.activated`,
    as the CLI's ``--trace-out`` does) records a ``panel`` span wrapping one
    ``panel/model`` span per entry — carrying outcome, phase, error type,
    and attempt count, with the span id joined onto the matching
    :class:`FailureRecord` — and model ``fit`` internals (optimizer steps,
    negative sampling) nest underneath.

    Parameters
    ----------
    isolate:
        When true (the default), an exception from one model's
        ``fit``/``evaluate`` is captured as a :class:`FailureRecord` instead
        of aborting the panel.  When false, the exception propagates (with a
        note naming the panel entry and phase).
    retry:
        ``None`` (single attempt), an int (that many attempts, no backoff),
        or a full :class:`~repro.runtime.retry.RetryPolicy`.  Each attempt
        builds a *fresh* model from the factory, so a half-trained model is
        never refit.
    time_budget:
        Optional per-model wall-clock budget in seconds.  Enforcement is
        cooperative and judges the *last fit attempt's* duration — backoff
        sleeps between retries do not count against the budget.  A model
        whose (successful) fit overran is recorded as a
        ``TimeBudgetExceeded`` failure rather than evaluated.
    fallback:
        Graceful degradation: a registered model name (e.g. ``"MostPopular"``)
        or a zero-arg factory, substituted for an entry that failed after
        retries.  The fallback's row is named ``"<entry> (fallback: <name>)"``
        and recorded on the corresponding :class:`FailureRecord`.
    clock:
        Injection point for the time source (tests use a fake clock).
    executor:
        ``"sequential"`` (the default, in-process) or ``"process"``: every
        entry runs in a forked worker process so panel wall-clock is set by
        the slowest entry rather than the sum.  Results are row-for-row
        identical to sequential (entries carry their own seeds; the split
        is computed once, pre-fork).  Worker telemetry is merged back into
        the parent trace with remapped span ids.  Requires ``isolate=True``.
    max_workers:
        Process-pool width for ``executor="process"`` (default: one worker
        per entry, capped at the CPU count).
    """
    if executor not in ("sequential", "process"):
        raise ConfigError(
            f"unknown executor {executor!r}; choose 'sequential' or 'process'"
        )
    train, test = random_split(dataset, test_fraction=test_fraction, seed=seed)
    evaluator = Evaluator(
        train, test, k_values=k_values, max_users=max_users, seed=seed
    )
    policy = _resolve_retry(retry)
    fallback_entry = _resolve_fallback(fallback)

    if executor == "process":
        if not isolate:
            raise ConfigError(
                "executor='process' requires isolate=True: worker failures "
                "are captured in-child as FailureRecords, not re-raised"
            )
        from .parallel import run_panel_process

        return run_panel_process(
            model_factories,
            train=train,
            evaluator=evaluator,
            policy=policy,
            time_budget=time_budget,
            fallback_entry=fallback_entry,
            clock=clock,
            max_workers=max_workers,
            seed=seed,
        )

    results: list[EvalResult] = []
    failures: list[FailureRecord] = []
    tel = get_active()
    enabled = tel.enabled
    if enabled:
        panel_span = tel.begin(
            "panel", models=len(model_factories), seed=seed,
        )
    try:
        for name, factory in model_factories.items():
            rows, failure = _execute_entry(
                name, factory, train, evaluator, policy, time_budget,
                fallback_entry, clock, tel, isolate,
            )
            results.extend(rows)
            if failure is not None:
                failures.append(failure)
    finally:
        if enabled:
            tel.end(panel_span, ok=len(results), failed=len(failures))

    return PanelResult(results, failures)


def results_table(
    results: PanelResult | list[EvalResult],
    columns: tuple[str, ...] = ("AUC", "NDCG@10", "Recall@10", "HR@10"),
    title: str = "",
) -> str:
    """Render evaluation results as an aligned text table.

    A :class:`PanelResult` carrying failures renders one ``FAILED`` row per
    failure plus a trailing ``Failures:`` block with the details.
    """
    rows = [
        [r.model] + [f"{r.values.get(c, float('nan')):.4f}" for c in columns]
        for r in results
    ]
    failures = list(getattr(results, "failures", ()))
    for f in failures:
        marker = f"FAILED ({f.phase}: {f.error_type})"
        rows.append([f.model] + ([marker] + ["--"] * (len(columns) - 1) if columns else []))
    text = render_table(["Model"] + list(columns), rows, title=title)
    if failures:
        lines = [text, "", "Failures:"]
        lines.extend(f"  - {f.describe()}" for f in failures)
        text = "\n".join(lines)
    return text
