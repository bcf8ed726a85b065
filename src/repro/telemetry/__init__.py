"""repro.telemetry — tracing and metrics across the stack.

The observability layer the rest of the repo reports into (see
``docs/observability.md``):

* :mod:`repro.telemetry.tracer` — nestable :class:`Span`\\ s on an
  injectable clock with a bounded record buffer.
* :mod:`repro.telemetry.metrics` — :class:`MetricRegistry` of labeled
  counters, gauges, and fixed-bucket histograms with exact small-sample
  p50/p90/p99.
* :mod:`repro.telemetry.export` — deterministic JSONL capture files.
* :mod:`repro.telemetry.report` — the ``python -m repro trace-report``
  renderer (span tree, hotspots, outcome reconciliation).

Everything is **off by default**: components hold :data:`NULL` (a
:class:`NullTelemetry`) unless a :class:`Telemetry` is handed to a
serving component (``RecommenderService(telemetry=...)``) or activated
with :func:`activated`.  Training — every gradient model's ``fit`` (one
loop, :func:`repro.runtime.loop.train_epochs`), ``run_panel`` and
everything beneath them — has that one entry: it reports to the active
telemetry.  Instrumented hot loops guard on the single
``telemetry.enabled`` attribute, so the disabled path stays at
no-measurable-overhead and every bitwise-determinism guarantee in the
repo is unaffected by turning telemetry on or off.
"""

from __future__ import annotations

from .base import NULL, NullTelemetry, Telemetry, activate, activated, get_active
from .export import (
    SCHEMA_VERSION,
    TraceCapture,
    export_records,
    read_jsonl,
    validate_records,
    write_jsonl,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    exact_quantile,
)
from .report import check_trace, render_trace_report, trace_report
from .tracer import Span, SpanRecord, Tracer

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL",
    "get_active",
    "activate",
    "activated",
    "Tracer",
    "Span",
    "SpanRecord",
    "MetricRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "exact_quantile",
    "SCHEMA_VERSION",
    "TraceCapture",
    "export_records",
    "write_jsonl",
    "read_jsonl",
    "validate_records",
    "render_trace_report",
    "trace_report",
    "check_trace",
]
