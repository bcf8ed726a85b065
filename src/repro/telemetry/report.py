"""Render a trace capture as a span tree, hotspot table, and metric digest.

``python -m repro trace-report run.jsonl`` reads a capture written by
``--trace-out`` and prints:

* an **aggregated span tree** — spans grouped by their name-path from the
  root, with call count, total time, and *self* time (total minus time
  spent in child spans), indented by nesting depth;
* **hotspots** — the top-k span names by aggregate self time, i.e. where
  the run actually spent its time once children are subtracted;
* an **outcome summary** — for every span name carrying an ``outcome``
  attribute (``serve/request``, ``panel/model``), counts per outcome.
  These reconcile exactly with the producing component's own counters
  (the service's ``status::*`` counters), which the serving cells of
  ``python -m repro fault-matrix`` assert;
* a **metric digest** — counters, gauges, and histogram quantiles.

All aggregation is on names and attributes, never on wall-clock
thresholds, so the report is deterministic for captures off a manual
clock and CI can assert on its structure.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from collections import defaultdict

from .export import TraceCapture, read_jsonl, validate_records
from .metrics import render_series
from .tracer import SpanRecord

__all__ = ["render_trace_report", "trace_report", "check_trace", "span_tree_rows"]


def _self_times(spans: list[SpanRecord]) -> dict[int, float]:
    """Per-span self time: duration minus the sum of child durations."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent_id is not None:
            child_time[s.parent_id] += s.duration
    return {s.span_id: s.duration - child_time[s.span_id] for s in spans}


def _paths(spans: list[SpanRecord]) -> dict[int, tuple[str, ...]]:
    """Name-path from the root for every span (orphans root themselves)."""
    by_id = {s.span_id: s for s in spans}
    paths: dict[int, tuple[str, ...]] = {}

    def path_of(s: SpanRecord) -> tuple[str, ...]:
        cached = paths.get(s.span_id)
        if cached is not None:
            return cached
        parent = by_id.get(s.parent_id) if s.parent_id is not None else None
        p = (path_of(parent) + (s.name,)) if parent is not None else (s.name,)
        paths[s.span_id] = p
        return p

    for s in spans:
        path_of(s)
    return paths


def span_tree_rows(spans: list[SpanRecord]) -> list[dict]:
    """Aggregate spans by name-path: one row per path, preorder-sorted."""
    self_times = _self_times(spans)
    paths = _paths(spans)
    agg: dict[tuple[str, ...], dict] = {}
    for s in spans:
        row = agg.setdefault(
            paths[s.span_id],
            {"count": 0, "total": 0.0, "self": 0.0},
        )
        row["count"] += 1
        row["total"] += s.duration
        row["self"] += self_times[s.span_id]
    return [
        {"path": path, "depth": len(path) - 1, "name": path[-1], **row}
        for path, row in sorted(agg.items())
    ]


def _fmt_seconds(v: float) -> str:
    return f"{v:.6f}s"


def render_trace_report(capture: TraceCapture, top: int = 10) -> str:
    """The full human-readable report for one capture."""
    spans = capture.spans
    lines = [
        "trace report",
        "=" * 12,
        f"spans   {len(spans)} "
        f"(dropped {capture.header.get('dropped_spans', 0)})",
        f"metrics {len(capture.metrics)}",
    ]

    rows = span_tree_rows(spans)
    lines.append("")
    lines.append("span tree (count, total, self):")
    if not rows:
        lines.append("  (no spans)")
    width = max((2 * r["depth"] + len(r["name"]) for r in rows), default=0)
    for r in rows:
        label = "  " * r["depth"] + r["name"]
        lines.append(
            f"  {label:<{width}}  x{r['count']:<6d} "
            f"total={_fmt_seconds(r['total'])}  self={_fmt_seconds(r['self'])}"
        )

    # hotspots: aggregate self time by span *name* across all paths
    by_name: dict[str, dict] = defaultdict(lambda: {"count": 0, "self": 0.0})
    for r in rows:
        by_name[r["name"]]["count"] += r["count"]
        by_name[r["name"]]["self"] += r["self"]
    hot = sorted(by_name.items(), key=lambda kv: (-kv[1]["self"], kv[0]))[:top]
    lines.append("")
    lines.append(f"hotspots (top {min(top, len(hot))} by self time):")
    for name, row in hot:
        lines.append(
            f"  {name:<24s} self={_fmt_seconds(row['self'])} "
            f"calls={row['count']}"
        )

    # outcome summary: span names carrying an "outcome" attribute.  A
    # span that also carries a structured "reason" (rejected promotions,
    # rollbacks) is tallied as outcome[reason], so the report breaks a
    # promotion's rejections down by cause (canary vs index_sync vs ...).
    outcomes: dict[str, TallyCounter] = defaultdict(TallyCounter)
    for s in spans:
        if "outcome" in s.attrs:
            key = str(s.attrs["outcome"])
            if "reason" in s.attrs:
                key = f"{key}[{s.attrs['reason']}]"
            outcomes[s.name][key] += 1
    if outcomes:
        lines.append("")
        lines.append("span outcomes:")
        for name in sorted(outcomes):
            tally = ", ".join(
                f"{outcome}={count}"
                for outcome, count in sorted(outcomes[name].items())
            )
            lines.append(f"  {name}: {tally}")

    if capture.metrics:
        lines.append("")
        lines.append("metrics:")
        for m in capture.metrics:
            series = render_series(
                m["name"], tuple(sorted(m.get("labels", {}).items()))
            )
            if m["kind"] == "counter":
                lines.append(f"  {series:<40s} {m['value']}")
            elif m["kind"] == "gauge":
                lines.append(
                    f"  {series:<40s} last={m['value']:.6g} "
                    f"min={m['min']:.6g} max={m['max']:.6g}"
                )
            else:
                lines.append(
                    f"  {series:<40s} n={m['count']} mean={m['mean']:.6g} "
                    f"p50={m['p50']:.6g} p90={m['p90']:.6g} p99={m['p99']:.6g}"
                    f"{' (exact)' if m.get('exact') else ''}"
                )
    return "\n".join(lines)


def trace_report(path, top: int = 10) -> str:
    """Read + render in one call (the CLI entry point)."""
    return render_trace_report(read_jsonl(path), top=top)


def check_trace(path) -> list[str]:
    """Schema-check a capture file; returns violations (empty = valid)."""
    import json
    from pathlib import Path

    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"cannot read {path}: {exc}"]
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            return [f"line {lineno}: not valid JSON: {exc}"]
    return validate_records(records)
