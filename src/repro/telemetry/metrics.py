"""Metric instruments and the registry that owns them.

Three instrument kinds, all zero-dependency and JSON-exportable:

* :class:`Counter` — monotonically increasing totals (requests served,
  sparse rows updated, negative-sampling fallbacks).
* :class:`Gauge` — last-written point-in-time values (batch loss, gradient
  norm), with running min/max so a snapshot still shows the envelope.
* :class:`Histogram` — fixed-bucket distribution with **exact** small-
  sample quantiles: every observation is retained (up to ``max_samples``)
  and quantiles use the nearest-rank method, so ``p99`` of 10 samples is
  the sample maximum rather than an interpolated value that no request
  actually experienced.  Past the retention cap, quantiles degrade to the
  bucket upper-bound estimate (the usual Prometheus-style answer) and the
  snapshot says which regime produced the number.  Long-running load
  tests can instead opt into ``reservoir=True``: past the cap the sample
  set becomes a seeded Algorithm-R reservoir (uniform over all
  observations), so quantiles stay unbiased nearest-rank estimates
  instead of bucket bounds.  The default mode's exports stay
  byte-identical.

Series are labeled: ``registry.counter("serve.status", status="ok")`` and
``status="degraded"`` are distinct series under one name.  Snapshots are
plain dicts (JSON-safe), and :meth:`MetricRegistry.merge` folds one
registry into another so per-shard registries can be combined.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from math import ceil, inf, isnan, nan
from random import Random

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "DEFAULT_BUCKETS",
    "exact_quantile",
]

#: Default histogram bounds: geometric latency-flavored edges from 100 µs
#: to ~100 s (an implicit +inf bucket is always appended).
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    base * scale
    for scale in (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
    for base in (1.0, 2.5, 5.0)
)


def exact_quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending-sorted list (NaN when empty).

    ``rank = ceil(q/100 * n)`` clamped to ``[1, n]`` — the returned number
    is always one of the observed values, which is what makes small-sample
    p99s honest: with 10 samples the old linear-interpolation estimate
    reported a value between the two largest observations, a latency no
    request ever saw.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"quantile must lie in [0, 100], got {q}")
    n = len(sorted_values)
    if n == 0:
        return nan
    rank = min(n, max(1, ceil(q / 100.0 * n)))
    return sorted_values[rank - 1]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only move forward; use a Gauge")
        self.value += amount

    def snapshot(self) -> dict:
        v = self.value
        return {"value": int(v) if float(v).is_integer() else float(v)}

    def merge(self, other: "Counter") -> None:
        self.value += other.value


class Gauge:
    """Last-written value plus the running envelope and write count."""

    __slots__ = ("value", "min", "max", "count")

    def __init__(self) -> None:
        self.value = nan
        self.min = inf
        self.max = -inf
        self.count = 0

    def set(self, value: float) -> None:
        value = float(value)
        self.value = value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def snapshot(self) -> dict:
        return {
            "value": self.value,
            "min": self.min if self.count else nan,
            "max": self.max if self.count else nan,
            "count": self.count,
        }

    def merge(self, other: "Gauge") -> None:
        # "last write" across registries is arbitrary; keep the other's
        # value when this gauge was never written, else keep ours.
        if self.count == 0:
            self.value = other.value
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.count += other.count


class Histogram:
    """Fixed-bucket distribution with exact small-sample quantiles.

    With ``reservoir=True`` the retained sample set stays a uniform
    random subset of *all* observations past ``max_samples`` (Vitter's
    Algorithm R, seeded, deterministic), so quantiles remain unbiased
    nearest-rank estimates instead of bucket upper bounds.  The default
    (``reservoir=False``) keeps the first ``max_samples`` observations
    and degrades to bucket bounds, byte-identical to prior exports.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max",
                 "max_samples", "reservoir", "reservoir_seed", "_samples",
                 "_rng")

    def __init__(
        self,
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
        max_samples: int = 4096,
        reservoir: bool = False,
        reservoir_seed: int = 0,
    ) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # trailing +inf bucket
        self.count = 0
        self.total = 0.0
        self.min = inf
        self.max = -inf
        self.max_samples = max_samples
        self.reservoir = bool(reservoir)
        self.reservoir_seed = int(reservoir_seed)
        self._samples: list[float] = []  # kept sorted, exact while small
        self._rng = Random(self.reservoir_seed) if self.reservoir else None

    # ------------------------------------------------------------------ #
    def observe(self, value: float) -> None:
        value = float(value)
        if isnan(value):
            raise ValueError("cannot observe NaN")
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < self.max_samples:
            insort(self._samples, value)
        elif self.reservoir:
            # Algorithm R: observation ``count`` replaces a uniformly
            # chosen reservoir slot with probability max_samples/count.
            # The list is sorted, but deleting index ``j`` still evicts a
            # uniformly chosen *element*, which is all uniformity needs.
            j = self._rng.randrange(self.count)
            if j < self.max_samples:
                del self._samples[j]
                insort(self._samples, value)

    @property
    def exact(self) -> bool:
        """True while every observation is retained (quantiles are exact)."""
        return self.count == len(self._samples)

    def quantile(self, q: float) -> float:
        """The ``q``-th percentile (NaN before any observation).

        Exact (nearest-rank over retained samples) while :attr:`exact`;
        in reservoir mode, nearest-rank over the uniform reservoir (an
        unbiased estimate); otherwise the upper bound of the bucket
        holding the target rank, clamped to the observed max for the
        overflow bucket.
        """
        if self.count == 0:
            return exact_quantile([], q)  # validates q, returns nan
        if self.exact or self.reservoir:
            return exact_quantile(self._samples, q)
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"quantile must lie in [0, 100], got {q}")
        rank = min(self.count, max(1, ceil(q / 100.0 * self.count)))
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if i < len(self.bounds):
                    return min(self.bounds[i], self.max)
                return self.max
        return self.max  # pragma: no cover - ranks always land in a bucket

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else nan

    def snapshot(self) -> dict:
        snap = {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else nan,
            "max": self.max if self.count else nan,
            "mean": self.mean,
            "p50": self.quantile(50.0),
            "p90": self.quantile(90.0),
            "p99": self.quantile(99.0),
            "exact": self.exact,
            "buckets": [
                [le, c]
                for le, c in zip(list(self.bounds) + [inf], self.bucket_counts)
                if c
            ],
        }
        if self.reservoir:
            # Only reservoir-mode snapshots grow this key, so default-mode
            # exports stay byte-identical to prior versions.
            snap["sampling"] = "reservoir"
        return snap

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, c in enumerate(other.bucket_counts):
            self.bucket_counts[i] += c
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        if self.reservoir:
            # Approximate merge: re-draw a seeded uniform subset of the
            # pooled retained samples (each side's samples are themselves
            # uniform over what that side observed).
            pool = sorted(self._samples + list(other._samples))
            if len(pool) <= self.max_samples:
                self._samples = pool
            else:
                self._samples = sorted(
                    self._rng.sample(pool, self.max_samples)
                )
            return
        for v in other._samples:
            if len(self._samples) >= self.max_samples:
                break
            insort(self._samples, v)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _series_key(name: str, labels: dict) -> tuple:
    return (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))


def render_series(name: str, labels: tuple) -> str:
    """Canonical ``name{k=v,...}`` rendering used in snapshots/exports."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class MetricRegistry:
    """Get-or-create registry of labeled metric series.

    A series is identified by ``(name, labels)``; the first access creates
    the instrument and later accesses return the same object regardless of
    keyword order.  Asking for an existing series with a different
    instrument kind raises — one name means one kind.
    """

    def __init__(self) -> None:
        self._series: dict[tuple, tuple[str, object]] = {}

    # ------------------------------------------------------------------ #
    def _get(self, kind: str, name: str, labels: dict, **init):
        key = _series_key(name, labels)
        entry = self._series.get(key)
        if entry is None:
            instrument = _KINDS[kind](**init)
            self._series[key] = (kind, instrument)
            return instrument
        existing_kind, instrument = entry
        if existing_kind != kind:
            raise ValueError(
                f"metric {render_series(*key)!r} is a {existing_kind}, "
                f"requested as {kind}"
            )
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels)

    def find(self, kind: str, name: str, **labels):
        """The series' instrument if it exists as a ``kind``, else ``None``.

        Unlike the get-or-create accessors this never creates a series.
        """
        entry = self._series.get(_series_key(name, labels))
        return entry[1] if entry is not None and entry[0] == kind else None

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(
        self,
        name: str,
        bounds: tuple[float, ...] | None = None,
        max_samples: int | None = None,
        reservoir: bool | None = None,
        reservoir_seed: int | None = None,
        **labels,
    ) -> Histogram:
        init = {}
        if bounds is not None:
            init["bounds"] = tuple(bounds)
        if max_samples is not None:
            init["max_samples"] = max_samples
        if reservoir is not None:
            init["reservoir"] = reservoir
        if reservoir_seed is not None:
            init["reservoir_seed"] = reservoir_seed
        return self._get("histogram", name, labels, **init)

    # ------------------------------------------------------------------ #
    def series(self):
        """Iterate ``(name, labels, kind, instrument)`` in sorted order."""
        for (name, labels), (kind, instrument) in sorted(
            self._series.items(), key=lambda item: item[0]
        ):
            yield name, labels, kind, instrument

    def __len__(self) -> int:
        return len(self._series)

    def snapshot(self) -> dict:
        """JSON-safe ``{rendered_series: instrument_snapshot}`` view."""
        return {
            render_series(name, labels): dict(instrument.snapshot(), kind=kind)
            for name, labels, kind, instrument in self.series()
        }

    def export_records(self) -> list[dict]:
        """One JSONL-ready record per series (sorted, deterministic)."""
        return [
            {
                "record": "metric",
                "kind": kind,
                "name": name,
                "labels": dict(labels),
                **instrument.snapshot(),
            }
            for name, labels, kind, instrument in self.series()
        ]

    def merge(self, other: "MetricRegistry") -> None:
        """Fold ``other``'s series into this registry (summing/combining)."""
        for key, (kind, instrument) in other._series.items():
            entry = self._series.get(key)
            if entry is None:
                if kind == "histogram":
                    clone = Histogram(
                        instrument.bounds,
                        instrument.max_samples,
                        reservoir=instrument.reservoir,
                        reservoir_seed=instrument.reservoir_seed,
                    )
                else:
                    clone = _KINDS[kind]()
                clone.merge(instrument)
                self._series[key] = (kind, clone)
                continue
            existing_kind, mine = entry
            if existing_kind != kind:
                raise ValueError(
                    f"metric {render_series(*key)!r} is a {existing_kind}, "
                    f"merged as {kind}"
                )
            mine.merge(instrument)
