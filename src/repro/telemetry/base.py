"""The `Telemetry` facade, its no-op twin, and the active-telemetry slot.

Every instrumented call site in the repo follows the same contract::

    tel = get_active()          # or a Telemetry threaded in explicitly
    if tel.enabled:             # <- the entire disabled-path cost
        span = tel.begin("kg/corrupt_batch", batch=n)
        ...
        tel.end(span, rounds=r)

:class:`NullTelemetry` exists so code that *holds* a telemetry reference
(service constructors, ``TrainingRuntime``) can call through it without
``None`` checks, but hot loops must still guard on ``enabled`` — a guarded
branch costs one attribute load, while even a no-op method call costs a
frame.  The acceptance bar for instrumentation in this repo is the guard,
not the null object.

The *active* telemetry is a module-level slot used by call sites too deep
to thread a parameter through (negative sampling inside a batch loss,
optimizer steps inside ``fit``).  The training loop
(:func:`repro.runtime.loop.train_epochs`, behind every gradient model's
``fit``) and ``run_panel`` report to it, so spans emitted by those inner
layers nest under the caller's spans in one shared tracer.
The slot is deliberately last-writer-wins and not an async-context
variable: this repo's trainers and services are single-process loops, and
determinism of exported traces matters more than concurrent isolation.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable

from repro.core.clock import system_clock

from .metrics import Counter, Gauge, Histogram, MetricRegistry
from .tracer import Span, Tracer

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL",
    "get_active",
    "activate",
    "activated",
]


class Telemetry:
    """One tracer + one metric registry behind a single ``enabled`` flag.

    Threading a single object (rather than a tracer and a registry
    separately) is what lets instrumentation across training, serving, and
    evaluation land in one export — and what lets ``ServiceMetrics`` sit
    on the same registry as the trainer's gauges.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = system_clock) -> None:
        self.clock = clock
        self.tracer = Tracer(clock=clock)
        self.metrics = MetricRegistry()

    # ------------------------------------------------------------------ #
    # tracing
    # ------------------------------------------------------------------ #
    def begin(self, name: str, **attrs) -> Span:
        return self.tracer.begin(name, **attrs)

    def end(self, span: Span, **attrs):
        return self.tracer.end(span, **attrs)

    def span(self, name: str, **attrs) -> Span:
        """Context-manager form: ``with tel.span("phase") as sp: ...``"""
        return self.tracer.begin(name, **attrs)

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #
    def counter(self, name: str, **labels) -> Counter:
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self.metrics.gauge(name, **labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self.metrics.histogram(name, **labels)

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def export_records(self) -> list[dict]:
        from .export import export_records

        return export_records(self)

    def export_jsonl(self, path) -> str:
        from .export import write_jsonl

        return write_jsonl(path, self)


class _NullSpan:
    """Reusable inert span: accepts everything, records nothing."""

    __slots__ = ()

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class _NullInstrument:
    """Inert counter/gauge/histogram stand-in."""

    __slots__ = ()
    value = 0
    count = 0

    def inc(self, amount=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    def quantile(self, q) -> float:
        return float("nan")


_NULL_SPAN = _NullSpan()
_NULL_INSTRUMENT = _NullInstrument()


class NullTelemetry:
    """The disabled telemetry: same surface as :class:`Telemetry`, no state.

    All methods return shared inert singletons, so even un-guarded call
    sites allocate nothing.  ``NULL`` is the canonical instance.
    """

    enabled = False
    tracer = None
    metrics = None

    def begin(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def end(self, span, **attrs) -> None:
        return None

    span = begin

    def counter(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    gauge = counter
    histogram = counter

    def export_records(self) -> list[dict]:
        return []


#: The canonical disabled telemetry (use this, don't construct your own).
NULL = NullTelemetry()

_active: Telemetry | NullTelemetry = NULL


def get_active() -> Telemetry | NullTelemetry:
    """The telemetry deep call sites report to (``NULL`` unless activated)."""
    return _active


def activate(telemetry: Telemetry | NullTelemetry | None):
    """Install ``telemetry`` as the active one; returns the previous."""
    global _active
    previous = _active
    _active = NULL if telemetry is None else telemetry
    return previous


@contextmanager
def activated(telemetry: Telemetry | NullTelemetry | None):
    """Scope-bound :func:`activate` (restores the previous on exit)."""
    previous = activate(telemetry)
    try:
        yield telemetry
    finally:
        activate(previous)
