"""Deterministic retries with seeded exponential backoff.

:class:`RetryPolicy` retries transient failures with exponential backoff
plus *seeded* jitter — two processes constructed with the same seed sleep
the same amounts, so retry behavior is reproducible and testable.  The
clock and sleep functions are injectable, which lets the test suite drive
a policy through "minutes" of backoff without a single real sleep.

Two usage forms::

    policy = RetryPolicy(max_attempts=3, base_delay=0.5, seed=0)

    # 1. direct call
    result = policy.call(flaky_fn, arg1, kw=2)

    # 2. attempt loop (tenacity-style), for code that is awkward as a closure
    for attempt in policy:
        with attempt:
            result = flaky_fn()

The per-attempt ``deadline`` guards against retrying operations that are
expensive to repeat: when a *failed* attempt took longer than ``deadline``
seconds, the policy gives up immediately instead of backing off.  The
optional ``total_budget`` is the cumulative wall-clock cap across *all*
attempts and backoff sleeps: before each backoff the policy checks that
the elapsed time plus the pending sleep still fits the budget and
otherwise gives up — so a slow-but-retryable failure chain can never
exceed an overall SLO (the serving layer uses this as its per-request
retry guard).
"""

from __future__ import annotations

import time
from typing import Callable

from repro.core.exceptions import ConfigError
from repro.core.rng import ensure_rng

__all__ = ["RetryPolicy", "Attempt"]


class Attempt:
    """One attempt in a :class:`RetryPolicy` loop (a context manager).

    Entering the context runs the protected block; a retryable exception is
    swallowed (and backoff slept) unless this is the last attempt or the
    attempt overran the policy deadline.
    """

    def __init__(
        self,
        policy: "RetryPolicy",
        number: int,
        delay_after: float,
        loop_start: float | None = None,
    ) -> None:
        self.policy = policy
        self.number = number
        self._delay_after = delay_after
        self._loop_start = loop_start
        self.succeeded = False
        self.elapsed = 0.0
        self.error: BaseException | None = None

    def __enter__(self) -> "Attempt":
        self._start = self.policy.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed = self.policy.clock() - self._start
        if exc is None:
            self.succeeded = True
            return False
        self.error = exc
        if not isinstance(exc, self.policy.retry_on):
            return False
        if self.number >= self.policy.max_attempts:
            return False
        if (
            self.policy.deadline is not None
            and self.elapsed > self.policy.deadline
        ):
            return False
        if self.policy.total_budget is not None and self._loop_start is not None:
            spent = self.policy.clock() - self._loop_start
            if spent + self._delay_after > self.policy.total_budget:
                return False
        before = self.policy.clock()
        self.policy.sleep(self._delay_after)
        if (
            self.policy.total_budget is not None
            and self._delay_after > 0
            and self.policy.clock() <= before
        ):
            # A manual clock whose ``sleep`` does not advance it makes
            # every budget check read the same elapsed time: the budget
            # can never trip and a budget-driven loop (the serving
            # live-rung retry, which wires ``sleep=clock.advance``) would
            # spin forever.  Surface the mis-wiring as configuration, not
            # an infinite loop.
            raise ConfigError(
                f"retry backoff slept {self._delay_after:.6f}s but the "
                "clock did not advance; total_budget needs sleep and "
                "clock wired to the same time source (pass "
                "sleep=clock.advance for a ManualClock)"
            )
        return True  # swallow and let the loop retry


class RetryPolicy:
    """Seeded exponential backoff with jitter and a per-attempt deadline.

    Parameters
    ----------
    max_attempts:
        Total attempts, including the first (``1`` disables retrying).
    base_delay, multiplier, max_delay:
        Attempt ``k`` (1-based) backs off
        ``min(max_delay, base_delay * multiplier**(k-1))`` seconds before
        attempt ``k+1``.
    jitter:
        Fractional jitter; each delay is scaled by a seeded uniform draw
        from ``[1 - jitter, 1 + jitter]``.
    seed:
        Seeds the jitter stream.  Every :meth:`call` (and every ``for
        attempt in policy`` loop) restarts the stream, so a policy object
        is reusable and deterministic.
    deadline:
        Optional per-attempt wall-clock budget in seconds.  A failed
        attempt that ran longer is not retried.
    total_budget:
        Optional cumulative wall-clock cap in seconds across all attempts
        and backoff sleeps.  Checked before each backoff sleep: when the
        time already spent plus the pending sleep would exceed the budget,
        the policy gives up and the last error propagates.  This bounds
        the worst-case latency of a retried operation (per-request SLO),
        which the per-attempt ``deadline`` alone cannot.  A budget only
        works when sleeping moves the clock: construction rejects
        ``base_delay=0`` budgets, and a backoff sleep that does not
        advance the injected clock (a mis-wired :class:`ManualClock`)
        raises :class:`ConfigError` instead of spinning the loop with a
        budget that can never trip.
    retry_on:
        Exception class(es) considered transient; everything else
        propagates immediately.
    sleep, clock:
        Injection points for tests (default ``time.sleep`` /
        ``time.monotonic``).
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay: float = 0.1,
        multiplier: float = 2.0,
        max_delay: float = 30.0,
        jitter: float = 0.5,
        seed: int = 0,
        deadline: float | None = None,
        total_budget: float | None = None,
        retry_on: type[BaseException] | tuple[type[BaseException], ...] = Exception,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if base_delay < 0 or max_delay < 0:
            raise ConfigError("delays must be non-negative")
        if multiplier < 1.0:
            raise ConfigError("multiplier must be >= 1")
        if not 0.0 <= jitter <= 1.0:
            raise ConfigError("jitter must lie in [0, 1]")
        if deadline is not None and deadline <= 0:
            raise ConfigError("deadline must be positive")
        if total_budget is not None and total_budget <= 0:
            raise ConfigError("total_budget must be positive")
        if total_budget is not None and base_delay == 0 and max_attempts > 1:
            raise ConfigError(
                "total_budget with base_delay=0 can never be consumed by "
                "backoff sleeps; give the policy a positive base_delay "
                "(or drop the budget and rely on max_attempts)"
            )
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self.seed = seed
        self.deadline = deadline
        self.total_budget = total_budget
        self.retry_on = retry_on if isinstance(retry_on, tuple) else (retry_on,)
        self.sleep = sleep
        self.clock = clock

    # ------------------------------------------------------------------ #
    def delays(self) -> list[float]:
        """The deterministic backoff schedule (one delay per retry gap)."""
        rng = ensure_rng(self.seed)
        out = []
        for k in range(self.max_attempts - 1):
            delay = min(self.max_delay, self.base_delay * self.multiplier**k)
            if self.jitter:
                delay *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
            out.append(delay)
        return out

    def __iter__(self):
        schedule = self.delays() + [0.0]
        loop_start = self.clock() if self.total_budget is not None else None
        for number in range(1, self.max_attempts + 1):
            attempt = Attempt(self, number, schedule[number - 1], loop_start)
            yield attempt
            if attempt.succeeded:
                return

    def call(self, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` under this policy, returning its result."""
        result = None
        for attempt in self:
            with attempt:
                result = fn(*args, **kwargs)
        return result
