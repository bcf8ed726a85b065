"""Nestable spans on an injectable clock, with a bounded record buffer.

A :class:`Span` is one timed region of work (``fit/epoch``,
``serve/request``, ``kg/corrupt_batch``) with free-form attributes.  Spans
nest: the tracer keeps a per-thread stack, so a span begun while another is
open records that span as its parent and the finished records reconstruct
the full call tree — which is what ``python -m repro trace-report`` renders.

Design constraints, in order:

* **Cheap when off** — the tracer is only ever reached behind a single
  ``telemetry.enabled`` attribute check at the call site; nothing here
  needs to be fast-pathed for the disabled case.
* **Deterministic** — span ids are sequential, time comes from the
  injected clock, and records are appended in *end* order (children before
  parents), so two seeded runs on a :class:`~repro.core.clock.ManualClock`
  export byte-identical traces.
* **Bounded** — the buffer holds at most :data:`MAX_SPANS` finished records;
  older records are dropped (and counted) rather than growing without
  limit under a long-lived service.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.core.clock import system_clock

__all__ = ["Span", "SpanRecord", "Tracer"]

#: Finished records a :class:`Tracer` keeps; older ones are dropped.
MAX_SPANS = 100_000


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, immutable and export-ready."""

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "record": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": self.attrs,
        }


class Span:
    """An open span.  Use as a context manager or end via the tracer."""

    __slots__ = ("tracer", "span_id", "parent_id", "name", "start", "attrs",
                 "_ended")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: int | None,
        name: str,
        start: float,
        attrs: dict,
    ) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.attrs = attrs
        self._ended = False

    def set(self, **attrs) -> "Span":
        """Attach/overwrite attributes on the open span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None and "error" not in self.attrs:
            self.attrs["error"] = type(exc).__name__
        self.tracer.end(self)
        return False


class Tracer:
    """Span factory + bounded finished-record buffer.

    Thread-safe: the open-span stack is thread-local (each thread nests
    its own spans), while id allocation and the finished buffer share a
    lock so concurrent threads interleave records without corruption.
    """

    def __init__(self, clock: Callable[[], float] = system_clock) -> None:
        self.clock = clock
        self.dropped = 0
        self._records: deque[SpanRecord] = deque()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    # ------------------------------------------------------------------ #
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **attrs) -> Span:
        """Open a span as a child of the current thread's innermost span."""
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(self, span_id, parent_id, name, self.clock(), attrs)
        stack.append(span)
        return span

    #: ``with tracer.span("name"):`` reads better at call sites.
    span = begin

    def end(self, span: Span, **attrs) -> SpanRecord | None:
        """Close ``span`` (idempotent) and append its record to the buffer."""
        if span._ended:
            return None
        span._ended = True
        if attrs:
            span.attrs.update(attrs)
        stack = self._stack()
        # Normal case: LIFO.  A span ended out of order (e.g. an exception
        # path skipped an inner end()) is removed from wherever it sits so
        # the stack cannot poison later parentage.
        if stack and stack[-1] is span:
            stack.pop()
        else:
            for i in range(len(stack) - 1, -1, -1):
                if stack[i] is span:
                    del stack[i:]
                    break
        record = SpanRecord(
            span.span_id, span.parent_id, span.name, span.start,
            self.clock(), span.attrs,
        )
        with self._lock:
            self._records.append(record)
            if len(self._records) > MAX_SPANS:
                self._records.popleft()
                self.dropped += 1
        return record

    # ------------------------------------------------------------------ #
    def adopt(
        self,
        records: list[SpanRecord],
        parent_id: int | None = None,
        shift: float = 0.0,
    ) -> dict[int, int]:
        """Merge finished spans from *another* tracer into this buffer.

        The process-pool panel runner uses this to fold each worker's trace
        back into the parent: every record gets a fresh id from this
        tracer's sequence (so ids stay unique within one capture), internal
        parent references are remapped through the same table, and records
        whose parent is ``None`` — or missing from the batch, e.g. dropped
        in the child — are re-rooted under ``parent_id``.  ``shift`` is
        added to every start/end so a worker's monotonic clock (which has
        an arbitrary origin in the child process) can be re-based onto the
        parent's timeline.  Records are appended in their given order, so a
        child buffer in end order keeps the children-before-parents
        invariant; returns the ``{old_id: new_id}`` map (callers use it to
        fix up cross-references such as ``FailureRecord.span_id``).
        """
        records = list(records)
        idmap: dict[int, int] = {}
        with self._lock:
            for r in records:
                idmap[r.span_id] = self._next_id
                self._next_id += 1
        remapped = [
            SpanRecord(
                span_id=idmap[r.span_id],
                parent_id=(
                    idmap.get(r.parent_id, parent_id)
                    if r.parent_id is not None
                    else parent_id
                ),
                name=r.name,
                start=r.start + shift,
                end=r.end + shift,
                attrs=r.attrs,
            )
            for r in records
        ]
        with self._lock:
            for record in remapped:
                self._records.append(record)
                if len(self._records) > MAX_SPANS:
                    self._records.popleft()
                    self.dropped += 1
        return idmap

    # ------------------------------------------------------------------ #
    def records(self) -> list[SpanRecord]:
        """Finished spans in end order (children before their parents)."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def export_records(self) -> list[dict]:
        return [r.to_json() for r in self.records()]
