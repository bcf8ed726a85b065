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

Backlog accounting is exact integer arithmetic, not float.  Every
finite double is an integer multiple of ``2**-1074``, so the clock and the
drain rate are carried as integers at that scale, and the backlog (whose
drain terms are products of the two) at twice that scale.  Python's
``int / int`` is correctly rounded, so the float ``wait`` and ``depth``
are the correctly rounded values of the exact backlog — what a
``fractions.Fraction`` backlog gives, bit for bit, at a fraction of its
cost.  Incremental float subtraction could leave the backlog a few ULPs
above its true value after long chains of tiny drains, which made
``backlog >= capacity`` over-trigger sheds when many requests landed at
the same :class:`ManualClock` timestamp; the exact representation makes
same-instant bursts admit exactly the remaining headroom before the
first shed.
"""

from __future__ import annotations

import math
import numbers
import time
from typing import Callable

from repro.core.exceptions import ConfigError, Overloaded

__all__ = ["AdmissionQueue"]

#: Every finite double is an integer multiple of ``2**-SCALE``.
SCALE = 1074
#: One request of backlog: the backlog is kept at scale ``2**(2 * SCALE)``.
_ONE = 1 << (2 * SCALE)


def _ticks(value: float) -> int:
    """``value * 2**SCALE`` as an exact integer (``value`` a finite double)."""
    num, den = value.as_integer_ratio()
    # ``den`` is a power of two no larger than 2**SCALE.
    return num << (SCALE + 1 - den.bit_length())


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
        # Exact accounting (see the module docstring): the clock and the
        # rate in ticks of 2**-SCALE, the backlog in ticks of 2**-(2*SCALE).
        if isinstance(capacity, numbers.Integral):
            self._full: int | float = int(capacity) * _ONE
        elif math.isfinite(capacity):
            self._full = _ticks(float(capacity)) << SCALE
        else:  # an infinite capacity never sheds
            self._full = float(capacity)
        # The rate's ticks are ``_rate_num << _rate_shift``: multiplying by
        # the (short) numerator and then shifting is the cheap exact product.
        self._rate_num, den = float(drain_rate).as_integer_ratio()
        self._rate_shift = SCALE + 1 - den.bit_length()
        # The rate at the backlog's scale: ``backlog / _rate_wide`` is a wait.
        self._rate_wide = self._rate_num << (self._rate_shift + SCALE)
        self._backlog = 0
        self._last = _ticks(float(clock()))
        self.admitted = 0
        self.shed = 0

    def _drain(self) -> None:
        now = _ticks(float(self.clock()))
        if now > self._last:
            drained = ((now - self._last) * self._rate_num) << self._rate_shift
            self._backlog = max(0, self._backlog - drained)
            self._last = now

    @property
    def depth(self) -> float:
        """Current backlog after draining for elapsed clock time."""
        self._drain()
        return self._backlog / _ONE

    def admit(self) -> float:
        """Admit one request or raise :class:`Overloaded`.

        Returns the estimated queue wait (seconds) the request incurred,
        which the service records as a metric.
        """
        self._drain()
        if self._backlog >= self._full:
            self.shed += 1
            raise Overloaded(
                f"admission queue full ({self._backlog / _ONE:.1f}/"
                f"{self.capacity} pending at drain rate "
                f"{self.drain_rate:g}/s); request shed"
            )
        wait = self._backlog / self._rate_wide
        self._backlog += _ONE
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
