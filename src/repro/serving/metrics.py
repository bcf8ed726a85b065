"""Per-endpoint counters and latency percentiles for the serving layer.

Historically this module owned its own ``Counter`` + latency list; it now
sits on the shared :class:`~repro.telemetry.metrics.MetricRegistry` so a
service constructed with a :class:`~repro.telemetry.Telemetry` lands its
counters in the same registry (and the same JSONL export) as training and
evaluation metrics.  The old attribute API — ``metrics.counters[...]``,
``incr``, ``observe_latency``, ``latency_percentile``, ``snapshot`` — is
preserved as a thin shim over the registry.

Latency percentiles also changed numerically: the old implementation used
``np.percentile`` linear interpolation, whose small-sample p99 reports a
value *between* the two largest observations — a latency no request ever
experienced, biased low exactly when a chaos replay has tens of requests.
The shared :class:`~repro.telemetry.metrics.Histogram` keeps exact samples
and answers with the nearest-rank quantile instead (see
``docs/observability.md``).

All timing numbers come from the service's injected clock, so under a
:class:`~repro.core.clock.ManualClock` the latency distribution — and
therefore the whole metrics snapshot — is deterministic under seed.
"""

from __future__ import annotations

from repro.telemetry.metrics import Counter, Histogram, MetricRegistry

__all__ = ["ServiceMetrics"]

#: Registry prefix for every serving counter, so service metrics are
#: recognizable inside a shared registry.
PREFIX = "serve."

#: Series name of the request latency histogram.
LATENCY_SERIES = "serve.latency_seconds"


class _CounterView:
    """Dict-like view of the serving counters (the historical API).

    Reads return 0 for never-incremented names (``Counter`` semantics);
    writes go straight through to the registry, so legacy
    ``metrics.counters[name] += n`` call sites still work.
    """

    __slots__ = ("_registry",)

    def __init__(self, registry: MetricRegistry) -> None:
        self._registry = registry

    def _own(self):
        for name, labels, kind, instrument in self._registry.series():
            if kind == "counter" and name.startswith(PREFIX) and not labels:
                yield name[len(PREFIX):], instrument

    def __getitem__(self, name: str) -> int:
        # Like collections.Counter: reading a missing name yields 0 without
        # inserting a series.
        for n, counter in self._own():
            if n == name:
                return int(counter.value)
        return 0

    def get(self, name: str, default: int = 0) -> int:
        for n, counter in self._own():
            if n == name:
                return int(counter.value)
        return default

    def __setitem__(self, name: str, value: int) -> None:
        counter = self._registry.counter(PREFIX + name)
        if value < counter.value:
            raise ValueError("serving counters only move forward")
        counter.value = value

    def __contains__(self, name: str) -> bool:
        return any(n == name for n, __ in self._own())

    def __iter__(self):
        return (name for name, __ in self._own())

    def items(self):
        return ((name, int(c.value)) for name, c in self._own())

    def __len__(self) -> int:
        return sum(1 for __ in self._own())


class ServiceMetrics:
    """Serving counters + latency histogram on a (shareable) registry.

    Parameters
    ----------
    registry:
        The :class:`MetricRegistry` to record into.  ``None`` creates a
        private registry (the historical standalone behavior);
        :class:`~repro.serving.service.RecommenderService` passes its
        telemetry's registry so serving metrics join the shared export.
    """

    def __init__(self, registry: MetricRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        self._latency: Histogram = self.registry.histogram(LATENCY_SERIES)
        # Counter handles by unprefixed name, bound on first use: the
        # registry never drops a series, so a handle stays valid.
        self._counters: dict[str, Counter] = {}

    # ------------------------------------------------------------------ #
    # historical API (thin shim over the registry)
    # ------------------------------------------------------------------ #
    @property
    def counters(self) -> _CounterView:
        return _CounterView(self.registry)

    def incr(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def counter(self, name: str) -> Counter:
        """The underlying registry counter for ``name`` (prefixed)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = self.registry.counter(PREFIX + name)
        return counter

    def observe_latency(self, seconds: float) -> None:
        self._latency.observe(float(seconds))

    @property
    def num_observations(self) -> int:
        return self._latency.count

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th latency percentile (NaN before any observation).

        Exact nearest-rank while the sample cap holds — the returned value
        is always a latency some request actually observed.
        """
        return self._latency.quantile(q)

    def snapshot(self) -> dict:
        """JSON-safe view: every counter plus p50/p99 latency."""
        out = {name: int(count) for name, count in sorted(self.counters.items())}
        out["latency_p50"] = self.latency_percentile(50.0)
        out["latency_p99"] = self.latency_percentile(99.0)
        out["latency_observations"] = self.num_observations
        return out
