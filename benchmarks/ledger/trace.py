"""Outside-in span tracer: wrap a layer's public callables, keep spans in memory.

The benchmark never edits the program to trace it.  A :class:`Tracer`
replaces an attribute — a method on a class, or a function on *every*
module that imported it by name — with a wrapper that records one span
per call, and puts the originals back on :meth:`Tracer.restore`.  ``validate_scores`` for example is bound in
``repro.runtime.guards``, ``repro.serving.service`` and
``repro.serving.registry``; patching only its home module would miss the
two call sites that matter.

Spans live in a list of small lists (name, start, end, parent, op,
child time) and are written out once, at the end of a run.  A span's self
time is its duration minus the time its direct children cover; calls are
synchronous and single-threaded, so children never overlap and self times
partition each root span exactly.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

__all__ = ["Tracer", "self_times"]

# Span record fields (a list per span keeps tracing overhead low).
NAME, START, END, PARENT, OP, CHILD = range(6)


class Tracer:
    """Records nested spans on ``clock`` and owns every patch it made."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = -1
        # (owner, attribute, original or _MISSING) in patch order.
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def _begin(self, name: str) -> None:
        if not self._stack:
            self._op += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, self.clock(), 0.0, parent, self._op, 0.0])

    def _end(self) -> None:
        span = self.spans[self._stack.pop()]
        span[END] = self.clock()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += span[END] - span[START]

    @contextmanager
    def span(self, name: str):
        """A span around a block; a span opened at depth 0 starts a new op."""
        self._begin(name)
        try:
            yield
        finally:
            self._end()

    def timed(self, fn: Callable, name: str) -> Callable:
        """``fn`` wrapped so each call records a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end()

        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        """``fn`` wrapped to bump ``counts[name]`` per call (no span)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def patch_method(self, cls: type, attr: str, name: str, count_only: bool = False) -> None:
        """Wrap ``cls.attr`` as seen through ``cls``.

        Handles plain functions, ``classmethod`` and ``staticmethod``.  A
        class that only inherits ``attr`` gets the wrapper set on itself
        and deleted again on restore, so the MRO is left as found.
        Subclass overrides are not wrapped: the ones in this program call
        ``super()`` (``Parameter.__init__``) or do not exist, and wrapping
        both levels would count one call twice.
        """
        make = self.counted if count_only else self.timed
        target = _lookup(cls, attr)
        if isinstance(target, (classmethod, staticmethod)):
            self.replace(cls, attr, type(target)(make(target.__func__, name)))
        else:
            self.replace(cls, attr, make(target, name))

    def patch_function(self, fn: Callable, name: str) -> int:
        """Wrap ``fn`` on every loaded module that binds it; returns the count."""
        wrapped = self.timed(fn, name)
        patched = 0
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is fn:
                    self.replace(module, attr, wrapped)
                    patched += 1
        return patched

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #
    def write_jsonl(self, path: str | Path) -> None:
        """One JSON object per span, in start order."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "op": s[OP],
                    "self": s[END] - s[START] - s[CHILD],
                }) + "\n")


def self_times(spans: list[list]) -> dict[str, tuple[float, float, int]]:
    """``name -> (total self time, total time, calls)`` over ``spans``.

    A name with no spans reads ``(0.0, 0.0, 0)``.
    """
    out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
    for s in spans:
        dur = s[END] - s[START]
        acc = out[s[NAME]]
        acc[0] += dur - s[CHILD]
        acc[1] += dur
        acc[2] += 1
    return defaultdict(lambda: (0.0, 0.0, 0), {n: tuple(v) for n, v in out.items()})


_MISSING = object()  # marks an attribute the owner did not define itself


def _lookup(cls: type, attr: str):
    """The raw descriptor ``attr`` resolves to through ``cls``'s MRO."""
    for base in cls.__mro__:
        if attr in base.__dict__:
            return base.__dict__[attr]
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")
