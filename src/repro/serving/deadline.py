"""Per-request deadline budgets.

A :class:`Deadline` is created when a request is admitted and carried
through scoring.  Enforcement is *cooperative*: the service calls
:meth:`Deadline.check` at well-defined checkpoints (after admission,
after each scoring rung, before ranking) rather than preempting the model
mid-call.  A model rung that overruns is treated as a failed rung — its
breaker records the failure and the fallback chain takes over — so slow
backends degrade instead of stalling the request pipeline.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.core.exceptions import ConfigError, DeadlineExceeded

__all__ = ["Deadline"]


class Deadline:
    """A wall-clock budget anchored at construction time.

    ``budget=None`` means unbounded: the deadline never expires and every
    check passes, so callers can thread a deadline unconditionally.  A NaN
    budget is rejected: ``elapsed > nan`` is never true, so it would
    silently never expire.
    """

    def __init__(
        self,
        budget: float | None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if budget is not None and not budget > 0:
            raise ConfigError("deadline budget must be positive")
        self.budget = budget
        self.clock = clock
        self.start = clock()

    @property
    def elapsed(self) -> float:
        return self.clock() - self.start

    @property
    def expired(self) -> bool:
        return self.budget is not None and self.elapsed > self.budget

    def check(self, context: str = "") -> None:
        """Cooperative checkpoint: raise :class:`DeadlineExceeded` if overrun."""
        if self.expired:
            where = f" ({context})" if context else ""
            raise DeadlineExceeded(
                f"request exceeded its {self.budget:.4f}s deadline after "
                f"{self.elapsed:.4f}s{where}"
            )
