"""Bounded admission queue with explicit load shedding.

The serving layer is synchronous and in-process, so "queueing" is modeled
as a deterministic fluid backlog: every admitted request adds one unit of
pending work, and the backlog drains at ``drain_rate`` requests per
second of *injected-clock* time.  When a request arrives while the
backlog is at ``capacity``, it is shed immediately with a structured
:class:`~repro.core.exceptions.Overloaded` — the queue never grows
unboundedly and a client never waits forever for a slot (bounded queue =
bounded worst-case latency; unbounded queues just convert overload into
timeouts).

The model is exact for the replay harness (arrivals and service times
both advance the same :class:`~repro.core.clock.ManualClock`) and a
reasonable token-bucket approximation under a real clock.

Backlog accounting is carried in :class:`fractions.Fraction`, not float:
``Fraction(float)`` is an exact conversion, so the drain arithmetic is
free of accumulation drift.  The old incremental float subtraction could
leave the backlog a few ULPs above its true value after long chains of
tiny drains, which made ``backlog >= capacity`` over-trigger sheds when
many requests landed at the same :class:`ManualClock` timestamp — the
exact representation makes same-instant bursts admit exactly the
remaining headroom before the first shed.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable

from repro.core.exceptions import ConfigError, Overloaded

__all__ = ["AdmissionQueue"]


class AdmissionQueue:
    """Fluid-model bounded queue: admit or shed, deterministically.

    Parameters
    ----------
    capacity:
        Maximum backlog (requests admitted but not yet drained).  An
        arrival finding the backlog at capacity is shed.
    drain_rate:
        Backlog units drained per second of clock time (the service's
        sustained throughput estimate).
    clock:
        Injectable monotonic time source.
    """

    def __init__(
        self,
        capacity: int = 32,
        drain_rate: float = 100.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ConfigError("admission capacity must be >= 1")
        if drain_rate <= 0:
            raise ConfigError("drain_rate must be positive")
        self.capacity = capacity
        self.drain_rate = drain_rate
        self.clock = clock
        # Exact accounting: Fraction(float) converts without rounding, so
        # backlog -= elapsed * rate never drifts the way repeated float
        # subtraction does.
        self._rate = Fraction(float(drain_rate))
        self._backlog = Fraction(0)
        self._last = Fraction(float(clock()))
        self.admitted = 0
        self.shed = 0

    def _drain(self) -> None:
        now = Fraction(float(self.clock()))
        if now > self._last:
            self._backlog = max(
                Fraction(0), self._backlog - (now - self._last) * self._rate
            )
            self._last = now

    @property
    def depth(self) -> float:
        """Current backlog after draining for elapsed clock time."""
        self._drain()
        return float(self._backlog)

    def estimated_wait(self) -> float:
        """Seconds a newly admitted request would wait behind the backlog."""
        self._drain()
        return float(self._backlog / self._rate)

    def admit(self) -> float:
        """Admit one request or raise :class:`Overloaded`.

        Returns the estimated queue wait (seconds) the request incurred,
        which the service records as a metric.
        """
        self._drain()
        if self._backlog >= self.capacity:
            self.shed += 1
            raise Overloaded(
                f"admission queue full ({float(self._backlog):.1f}/"
                f"{self.capacity} pending at drain rate "
                f"{self.drain_rate:g}/s); request shed"
            )
        wait = float(self._backlog / self._rate)
        self._backlog += 1
        self.admitted += 1
        return wait

    def snapshot(self) -> dict:
        """JSON-safe view for health probes."""
        return {
            "depth": round(self.depth, 6),
            "capacity": self.capacity,
            "drain_rate": self.drain_rate,
            "admitted": self.admitted,
            "shed": self.shed,
        }
