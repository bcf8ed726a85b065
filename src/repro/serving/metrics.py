"""Per-endpoint counters and latency percentiles for the serving layer.

The counters and the latency histogram sit on the shared
:class:`~repro.telemetry.metrics.MetricRegistry`, so a service constructed
with a :class:`~repro.telemetry.Telemetry` lands its counters in the same
registry (and the same JSONL export) as training and evaluation metrics.
Counters are written with ``incr`` and read with ``count``, each one keyed
lookup; ``snapshot`` is the one call that walks every series.

Latency percentiles come from the shared
:class:`~repro.telemetry.metrics.Histogram`, which keeps exact samples and
answers with the nearest-rank quantile: every reported latency is one a
request experienced (see ``docs/observability.md``).

All timing numbers come from the service's injected clock, so under a
:class:`~repro.core.clock.ManualClock` the latency distribution — and
therefore the whole metrics snapshot — is deterministic under seed.
"""

from __future__ import annotations

from repro.telemetry.metrics import Counter, Histogram, MetricRegistry

__all__ = ["CounterFamily", "ServiceMetrics"]

#: Registry prefix for every serving counter, so service metrics are
#: recognizable inside a shared registry.
PREFIX = "serve."

#: Series name of the request latency histogram.
LATENCY_SERIES = "serve.latency_seconds"


class ServiceMetrics:
    """Serving counters + latency histogram on a (shareable) registry.

    Parameters
    ----------
    registry:
        The :class:`MetricRegistry` to record into.  ``None`` creates a
        private registry;
        :class:`~repro.serving.service.RecommenderService` passes its
        telemetry's registry so serving metrics join the shared export.
    """

    def __init__(self, registry: MetricRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        self._latency: Histogram = self.registry.histogram(LATENCY_SERIES)
        # Counter handles by unprefixed name, bound on first use: the
        # registry never drops a series, so a handle stays valid.
        self._counters: dict[str, Counter] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def counter(self, name: str) -> Counter:
        """The underlying registry counter for ``name`` (prefixed)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = self.registry.counter(PREFIX + name)
        return counter

    def counters(self, prefix: str) -> "CounterFamily":
        """Handles of the counters ``<prefix><key>``, each bound on first use.

        ``family[key].inc()`` writes the same series as
        ``incr(prefix + key)`` without building the name per call; a series
        still appears in the registry only when first written.
        """
        return CounterFamily(self, prefix)

    def count(self, name: str) -> int:
        """The value of counter ``name``; 0, creating no series, if unwritten."""
        counter = self.registry.find("counter", PREFIX + name)
        return 0 if counter is None else int(counter.value)

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
        out = dict(sorted(
            (name[len(PREFIX):], int(counter.value))
            for name, labels, kind, counter in self.registry.series()
            if kind == "counter" and name.startswith(PREFIX) and not labels
        ))
        out["latency_p50"] = self.latency_percentile(50.0)
        out["latency_p99"] = self.latency_percentile(99.0)
        out["latency_observations"] = self.num_observations
        return out


class CounterFamily(dict):
    """Counter handles by key under one name prefix (see ``counters``)."""

    def __init__(self, metrics: ServiceMetrics, prefix: str) -> None:
        super().__init__()
        self._metrics = metrics
        self._prefix = prefix

    def __missing__(self, key: str) -> Counter:
        counter = self[key] = self._metrics.counter(self._prefix + key)
        return counter
