"""Injectable time sources shared by telemetry, serving, and the runtime.

Every time-dependent component in the repo — circuit breakers, deadlines,
the admission queue, latency metrics, and tracer spans — takes a ``clock`` callable returning monotonic seconds, defaulting
to :func:`time.monotonic`.  Tests and the seeded traffic replays pass a
:class:`ManualClock` instead, so "minutes" of breaker cooldown or queue
drain happen instantly and two runs with the same seed observe
bitwise-identical timestamps (which is what makes exported traces
byte-for-byte reproducible; see ``docs/observability.md``).
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["Clock", "ManualClock", "system_clock"]

#: Type of every ``clock=`` injection point: a zero-arg monotonic-seconds
#: callable.
Clock = Callable[[], float]

#: The default wall time source (alias kept so call sites read uniformly).
system_clock: Clock = time.monotonic


class ManualClock:
    """A clock that only moves when told to.

    The instance is callable (so it slots into any ``clock=`` parameter)
    and :meth:`advance` doubles as an injected ``sleep``: a component that
    "sleeps" on a manual clock simply moves time forward for every other
    component sharing the clock.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    @property
    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("time cannot move backwards")
        self._now += float(seconds)

    # alias so the clock can be passed wherever a ``sleep`` is injected
    sleep = advance
