"""Process-pool execution of panel entries (``run_panel(executor="process")``).

The sequential panel loop fits one model at a time, so study wall-clock
grows linearly with the method count.  This module runs every panel entry
in a **forked worker process** instead, while keeping the results
row-for-row identical to the sequential executor:

* The split and :class:`~repro.eval.evaluator.Evaluator` are computed once
  in the parent, *before* forking, so every worker scores against the
  identical candidate sets — and the (possibly huge) dataset reaches the
  workers by copy-on-write page sharing, never by pickling.
* Each worker runs the exact same
  :func:`~repro.experiments.harness._execute_entry` code path as the
  sequential loop — one fit, then evaluation, with any failure captured
  **in the child** — so the two executors cannot drift.
* A worker returns a pickled :class:`~repro.eval.evaluator.EvalResult`
  row plus a structured
  :class:`~repro.experiments.harness.FailureRecord` with the traceback
  captured in-child.  A worker that dies outright (segfault, ``os._exit``)
  becomes a ``WorkerCrashed`` failure record rather than aborting the
  panel.
* When the parent panel runs traced, each worker records into its own
  :class:`~repro.telemetry.Telemetry`; the parent merges every child
  capture back via :meth:`~repro.telemetry.tracer.Tracer.adopt` — span ids
  remapped into the parent's sequence, child roots re-parented under the
  parent ``panel`` span, child clocks re-based onto the parent timeline —
  and folds child metric registries into the parent's, so ``trace-report``
  reconciles a process-pool study exactly like a sequential one.

Worker state travels through a module-level slot (:data:`_WORK`) that the
fork inherits, which is what lets panel factories stay plain lambdas: the
only objects that ever cross a process boundary by pickle are the small
result payloads.  On platforms without ``fork`` the runner transparently
degrades to the sequential code path (same rows, no speedup).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import traceback as traceback_module
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable

from repro.eval.evaluator import EvalResult, Evaluator
from repro.telemetry import Telemetry
from repro.telemetry.base import NULL, activated, get_active
from repro.telemetry.tracer import SpanRecord

from .harness import FailureRecord, PanelResult, _execute_entry

__all__ = ["run_panel_process", "fork_available"]


def fork_available() -> bool:
    """Whether this platform supports the copy-on-write ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


@dataclasses.dataclass
class _WorkerState:
    """Everything a forked worker needs, inherited copy-on-write."""

    entries: list[tuple[str, Callable]]
    train: object
    evaluator: Evaluator
    traced: bool


@dataclasses.dataclass
class _EntryPayload:
    """What one worker sends back (everything here must pickle)."""

    index: int
    results: list[EvalResult]
    failure: FailureRecord | None
    spans: list[SpanRecord]
    metrics: object | None  # MetricRegistry when traced


#: Fork-inherited worker state; set by the parent immediately before the
#: pool is created and cleared when the panel finishes.
_WORK: _WorkerState | None = None


def _child_run(index: int) -> _EntryPayload:
    """Worker entry point: execute one panel entry and package the outcome."""
    state = _WORK
    if state is None:  # pragma: no cover - defensive: fork didn't carry state
        raise RuntimeError("panel worker state missing (not forked from parent?)")
    name, factory = state.entries[index]
    tel = Telemetry() if state.traced else NULL
    with activated(tel):
        results, failure = _execute_entry(
            name, factory, state.train, state.evaluator, tel
        )
    spans = tel.tracer.records() if state.traced else []
    metrics = tel.metrics if state.traced else None
    return _EntryPayload(index, results, failure, spans, metrics)


def _crash_payload(index: int, name: str, exc: BaseException) -> _EntryPayload:
    """Failure payload for a worker that died before returning a result."""
    record = FailureRecord(
        model=name,
        phase="fit",
        error_type="WorkerCrashed",
        message=f"{type(exc).__name__}: {exc}",
        traceback=traceback_module.format_exc(),
    )
    return _EntryPayload(index, [], record, [], None)


def run_panel_process(
    model_factories: dict[str, Callable],
    *,
    train,
    evaluator: Evaluator,
    max_workers: int | None,
    seed: int,
) -> PanelResult:
    """Run prepared panel entries in a fork-based process pool.

    Called by :func:`~repro.experiments.harness.run_panel` after the split
    and evaluator are built — the panel API surface lives there; this
    function owns only the execution strategy.
    """
    global _WORK
    entries = list(model_factories.items())
    tel = get_active()
    enabled = tel.enabled

    if not entries:
        return PanelResult()

    workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
    workers = max(1, min(int(workers), len(entries)))

    if enabled:
        panel_span = tel.begin(
            "panel", models=len(entries), seed=seed,
            executor="process", workers=workers,
        )

    payloads: dict[int, _EntryPayload] = {}
    dispatch_times: dict[int, float] = {}
    rows: list[EvalResult] = []
    failures: list[FailureRecord] = []
    try:
        if not fork_available():  # pragma: no cover - non-POSIX platforms
            # No copy-on-write fork: degrade to in-process execution.  Rows
            # are identical by construction; only the speedup is lost.
            for i, (name, factory) in enumerate(entries):
                results, failure = _execute_entry(
                    name, factory, train, evaluator, tel
                )
                payloads[i] = _EntryPayload(i, results, failure, [], None)
        else:
            _WORK = _WorkerState(
                entries=entries,
                train=train,
                evaluator=evaluator,
                traced=enabled,
            )
            context = multiprocessing.get_context("fork")
            try:
                orphans: list[int] = []
                with ProcessPoolExecutor(
                    max_workers=workers, mp_context=context
                ) as pool:
                    futures = {}
                    for i in range(len(entries)):
                        dispatch_times[i] = tel.clock() if enabled else 0.0
                        futures[i] = pool.submit(_child_run, i)
                    for i in range(len(entries)):
                        try:
                            payloads[i] = futures[i].result()
                        except BrokenProcessPool:
                            # A worker died hard (segfault, os._exit) and took
                            # the pool down; every in-flight entry raises this,
                            # innocent or not.  Defer them for a solo retry.
                            orphans.append(i)
                        except Exception as exc:  # noqa: BLE001 - crash isolation
                            payloads[i] = _crash_payload(i, entries[i][0], exc)
                # Re-run each orphan alone in a fresh single-worker pool: the
                # entries that merely shared a broken pool produce their real
                # rows; the one that actually kills its worker breaks its own
                # private pool and becomes the WorkerCrashed record.
                for i in orphans:
                    try:
                        with ProcessPoolExecutor(
                            max_workers=1, mp_context=context
                        ) as solo:
                            dispatch_times[i] = tel.clock() if enabled else 0.0
                            payloads[i] = solo.submit(_child_run, i).result()
                    except Exception as exc:  # noqa: BLE001 - crash isolation
                        payloads[i] = _crash_payload(i, entries[i][0], exc)
            finally:
                _WORK = None

        for i in range(len(entries)):
            payload = payloads[i]
            failure = payload.failure
            if enabled and payload.spans:
                # Re-base the child's clock so its spans sit on the parent
                # timeline (child monotonic origins are arbitrary).
                shift = dispatch_times[i] - min(r.start for r in payload.spans)
                idmap = tel.tracer.adopt(
                    payload.spans, parent_id=panel_span.span_id, shift=shift
                )
                if failure is not None and failure.span_id is not None:
                    failure = dataclasses.replace(
                        failure, span_id=idmap.get(failure.span_id)
                    )
            if enabled and payload.metrics is not None:
                tel.metrics.merge(payload.metrics)
            rows.extend(payload.results)
            if failure is not None:
                failures.append(failure)
    finally:
        if enabled:
            tel.end(panel_span, ok=len(rows), failed=len(failures))

    return PanelResult(rows, failures)
