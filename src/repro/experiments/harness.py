"""Experiment harness: run model panels and collect comparable rows.

Every comparative study reduces to the same loop — generate a dataset,
split, fit a panel of models, evaluate on identical candidate sets — which
:func:`run_panel` implements once.  Studies in
:mod:`repro.experiments.comparative` build on it.

Panels are *fault-isolated*: one model diverging or crashing does not
abort the whole study.  Each entry is fitted once; a failing entry
becomes a structured :class:`FailureRecord` on the returned
:class:`PanelResult` (which still behaves as the historical
``list[EvalResult]``), and the other entries' rows are unaffected.  See
``docs/robustness.md``.

Panels can also run their entries in a **process pool**
(``executor="process"``): every entry fits and evaluates in a forked
worker through the same code path, producing row-for-row identical
results and failure records to the sequential executor.  See
:mod:`repro.experiments.parallel` and ``docs/performance.md``.
"""

from __future__ import annotations

import time
import traceback as traceback_module
from dataclasses import dataclass
from typing import Callable

from repro.core.dataset import Dataset
from repro.core.exceptions import ConfigError
from repro.core.recommender import Recommender
from repro.core.splitter import random_split
from repro.eval.evaluator import EvalResult, Evaluator
from repro.telemetry.base import get_active

from .tables import render_table

__all__ = ["run_panel", "results_table", "PanelResult", "FailureRecord"]

#: Share of each panel's interactions held out for evaluation.
TEST_FRACTION = 0.2
#: Ranking cut-offs every panel row is scored at.
K_VALUES = (5, 10)


@dataclass(frozen=True)
class FailureRecord:
    """Structured account of one panel entry that could not be evaluated."""

    model: str
    phase: str  # "fit" or "evaluate"
    error_type: str
    message: str
    traceback: str = ""
    #: Wall-clock from entry start to failure.
    elapsed: float = 0.0
    #: Id of this entry's ``panel/model`` telemetry span, when the panel ran
    #: with telemetry — lets a trace consumer join the failure to its exact
    #: timed span (and every child span recorded during the failing fit).
    #: For process-pool panels the id is already remapped into the parent
    #: trace's id space.
    span_id: int | None = None

    def describe(self) -> str:
        return (
            f"{self.model}: {self.phase} failed in {self.elapsed:.2f}s: "
            f"{self.error_type}: {self.message}"
        )


class PanelResult(list):
    """``list[EvalResult]`` plus the failures met while producing it."""

    def __init__(self, results=(), failures: list[FailureRecord] | None = None) -> None:
        super().__init__(results)
        self.failures: list[FailureRecord] = list(failures or [])

    @property
    def ok(self) -> bool:
        return not self.failures


def _execute_entry(
    name: str,
    factory: Callable[[], Recommender],
    train: Dataset,
    evaluator: Evaluator,
    tel,
) -> tuple[list[EvalResult], FailureRecord | None]:
    """Fit once and evaluate one panel entry, isolating its failure.

    Returns ``(rows, failure)``: the entry's :class:`EvalResult` row on
    success, or no rows and the :class:`FailureRecord` when ``fit`` or
    ``evaluate`` raised.  This is the single code path shared by the
    sequential loop and the process-pool workers, which is what makes the
    two executors row-for-row identical by construction.
    """
    phase = "fit"
    start = time.monotonic()
    model_span = tel.begin("panel/model", model=name) if tel.enabled else None
    try:
        model = factory()
        model.fit(train)
        phase = "evaluate"
        row = evaluator.evaluate(model, name=name)
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        record = FailureRecord(
            model=name,
            phase=phase,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=traceback_module.format_exc(),
            elapsed=time.monotonic() - start,
            span_id=model_span.span_id if model_span is not None else None,
        )
        if model_span is not None:
            tel.counter("panel.models_failed").inc()
            tel.end(
                model_span, outcome="failed", phase=phase,
                error_type=record.error_type,
            )
        return [], record
    if model_span is not None:
        tel.counter("panel.models_ok").inc()
        tel.end(model_span, outcome="ok")
    return [row], None


def run_panel(
    dataset: Dataset,
    model_factories: dict[str, Callable[[], Recommender]],
    max_users: int | None = 50,
    seed: int = 0,
    *,
    executor: str = "sequential",
    max_workers: int | None = None,
) -> PanelResult:
    """Split ``dataset`` and evaluate every model on the identical split.

    The split holds out ``TEST_FRACTION`` of the interactions, and every
    model is scored at ``K_VALUES``.  Each entry is fitted once; an
    exception from its ``fit`` or ``evaluate`` is captured as a
    :class:`FailureRecord` instead of aborting the panel.

    The active telemetry (installed with :func:`repro.telemetry.activated`,
    as the CLI's ``--trace-out`` does) records a ``panel`` span wrapping one
    ``panel/model`` span per entry — carrying outcome, phase and error
    type, with the span id joined onto the matching :class:`FailureRecord`
    — and model ``fit`` internals (optimizer steps, negative sampling) nest
    underneath.

    Parameters
    ----------
    executor:
        ``"sequential"`` (the default, in-process) or ``"process"``: every
        entry runs in a forked worker process so panel wall-clock is set by
        the slowest entry rather than the sum.  Results are row-for-row
        identical to sequential (entries carry their own seeds; the split
        is computed once, pre-fork).  Worker telemetry is merged back into
        the parent trace with remapped span ids.
    max_workers:
        Process-pool width for ``executor="process"`` (default: one worker
        per entry, capped at the CPU count).
    """
    if executor not in ("sequential", "process"):
        raise ConfigError(
            f"unknown executor {executor!r}; choose 'sequential' or 'process'"
        )
    train, test = random_split(dataset, test_fraction=TEST_FRACTION, seed=seed)
    evaluator = Evaluator(
        train, test, k_values=K_VALUES, max_users=max_users, seed=seed
    )

    if executor == "process":
        from .parallel import run_panel_process

        return run_panel_process(
            model_factories,
            train=train,
            evaluator=evaluator,
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
            rows, failure = _execute_entry(name, factory, train, evaluator, tel)
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
