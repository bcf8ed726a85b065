"""JSONL export and re-import of one telemetry capture.

One capture is one file: a ``header`` record, every finished span in end
order, then one record per metric series (sorted).  Everything is plain
``json.dumps(sort_keys=True)``, so a seeded run on a
:class:`~repro.core.clock.ManualClock` exports byte-identical files —
the fault-matrix serving cells rely on that, and ``trace-report``
consumes the format without access to the process that produced it.

Schema (version 1)::

    {"record": "header", "version": 1, "spans": N, "dropped_spans": D,
     "metrics": M}
    {"record": "span", "span_id": 3, "parent_id": 1, "name": "fit/epoch",
     "start": 0.0, "end": 1.5, "duration": 1.5, "attrs": {...}}
    {"record": "metric", "kind": "counter", "name": "serve.requests",
     "labels": {}, "value": 300}

:func:`validate_records` is the machine check behind
``trace-report --check``: it returns a list of human-readable schema
violations (empty means valid).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.exceptions import DataError

from .tracer import SpanRecord

__all__ = [
    "SCHEMA_VERSION",
    "TraceCapture",
    "export_records",
    "write_jsonl",
    "read_jsonl",
    "parse_records",
    "validate_records",
]

SCHEMA_VERSION = 1

_SPAN_FIELDS = {"record", "span_id", "parent_id", "name", "start", "end",
                "duration", "attrs"}
_METRIC_FIELDS = {"record", "kind", "name", "labels"}
_METRIC_KINDS = {"counter", "gauge", "histogram"}


@dataclass
class TraceCapture:
    """A parsed capture: header + spans + metric records."""

    header: dict = field(default_factory=dict)
    spans: list[SpanRecord] = field(default_factory=list)
    metrics: list[dict] = field(default_factory=list)


def export_records(telemetry) -> list[dict]:
    """Header + span + metric records for ``telemetry`` (JSON-safe dicts)."""
    spans = telemetry.tracer.export_records()
    metrics = telemetry.metrics.export_records()
    header = {
        "record": "header",
        "version": SCHEMA_VERSION,
        "spans": len(spans),
        "dropped_spans": telemetry.tracer.dropped,
        "metrics": len(metrics),
    }
    return [header, *spans, *metrics]


def write_jsonl(path, telemetry) -> str:
    """Write ``telemetry``'s capture to ``path``; returns the path written."""
    path = Path(path)
    lines = [json.dumps(r, sort_keys=True) for r in export_records(telemetry)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def parse_records(records: list[dict]) -> TraceCapture:
    """Group already-decoded records into a :class:`TraceCapture`."""
    capture = TraceCapture()
    for r in records:
        kind = r.get("record")
        if kind == "header":
            capture.header = r
        elif kind == "span":
            capture.spans.append(
                SpanRecord(
                    span_id=int(r["span_id"]),
                    parent_id=None if r["parent_id"] is None else int(r["parent_id"]),
                    name=str(r["name"]),
                    start=float(r["start"]),
                    end=float(r["end"]),
                    attrs=dict(r.get("attrs") or {}),
                )
            )
        elif kind == "metric":
            capture.metrics.append(r)
        else:
            raise DataError(f"unknown trace record type {kind!r}")
    return capture


def read_jsonl(path) -> TraceCapture:
    """Parse a capture file; raises :class:`DataError` on malformed input."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"trace file {path} does not exist")
    records = []
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
    try:
        return parse_records(records)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed trace record: {exc!r}") from exc


def validate_records(records: list[dict]) -> list[str]:
    """Schema-check decoded records; returns violations (empty = valid)."""
    errors: list[str] = []
    headers = [r for r in records if r.get("record") == "header"]
    if len(headers) != 1:
        errors.append(f"expected exactly one header record, found {len(headers)}")
    elif headers[0].get("version") != SCHEMA_VERSION:
        errors.append(
            f"unsupported schema version {headers[0].get('version')!r}"
        )
    span_count = metric_count = 0
    span_ids = set()
    for i, r in enumerate(records):
        kind = r.get("record")
        if kind == "span":
            span_count += 1
            missing = _SPAN_FIELDS - r.keys()
            if missing:
                errors.append(f"record {i}: span missing fields {sorted(missing)}")
                continue
            if r["end"] < r["start"]:
                errors.append(f"record {i}: span ends before it starts")
            span_ids.add(r["span_id"])
        elif kind == "metric":
            metric_count += 1
            missing = _METRIC_FIELDS - r.keys()
            if missing:
                errors.append(f"record {i}: metric missing fields {sorted(missing)}")
                continue
            if r["kind"] not in _METRIC_KINDS:
                errors.append(f"record {i}: unknown metric kind {r['kind']!r}")
            elif r["kind"] == "counter" and "value" not in r:
                errors.append(f"record {i}: counter has no value")
            elif r["kind"] == "histogram" and "count" not in r:
                errors.append(f"record {i}: histogram has no count")
        elif kind != "header":
            errors.append(f"record {i}: unknown record type {kind!r}")
    # Parent references must resolve within the capture (or be dropped
    # spans, which the header admits to).
    dropped = headers[0].get("dropped_spans", 0) if headers else 0
    if not dropped:
        for i, r in enumerate(records):
            if r.get("record") == "span" and r.get("parent_id") is not None:
                if r["parent_id"] not in span_ids:
                    errors.append(
                        f"record {i}: parent span {r['parent_id']} not in capture"
                    )
    if headers:
        h = headers[0]
        if "spans" in h and h["spans"] != span_count:
            errors.append(
                f"header claims {h['spans']} spans, file has {span_count}"
            )
        if "metrics" in h and h["metrics"] != metric_count:
            errors.append(
                f"header claims {h['metrics']} metrics, file has {metric_count}"
            )
    return errors
