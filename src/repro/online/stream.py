"""Seeded sessionized interaction stream with cold-start churn.

The online loop (:mod:`repro.online.loop`) consumes batches from an
:class:`InteractionStream`: each batch is one user *session* — a handful
of item interactions drawn from that user's hidden ground-truth
preference vector.  The stream models the two churn events a live
recommender must absorb:

* **newcomer users** — with probability ``newcomer_rate`` a session
  belongs to a user the system has never seen.  Capacity for every
  future newcomer is pre-allocated in the embedding store (fixed table
  shapes), but the newcomer's row sits at its seeded random init until
  the shadow trainer learns from their first session — which is exactly
  what the freshness metric measures against a frozen baseline;
* **new items** — with probability ``new_item_rate`` a session
  introduces a catalog item no one has interacted with yet.  The
  introducing session always includes it, so the item is learnable from
  its first appearance.

Timestamps come from a shared :class:`~repro.core.clock.ManualClock`
(the stream advances it by ``arrival_gap`` per batch), so replays are
bitwise-deterministic and "hours" of traffic take no wall time.  The
stream's RNG is consumed only by :meth:`next_batch`, never by the loop
or trainer — a quarantined batch therefore does not perturb the arrival
sequence of later batches, which is what lets the fault matrix compare
faulted and clean replays step-for-step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.clock import ManualClock
from repro.core.exceptions import ConfigError
from repro.core.rng import ensure_rng

__all__ = ["StreamConfig", "InteractionBatch", "InteractionStream"]

#: Bootstrap interactions per warm user (:meth:`InteractionStream.warm_interactions`).
WARM_PER_USER = 3


@dataclass(frozen=True)
class StreamConfig:
    """Shape of the simulated interaction feed.

    ``num_users``/``num_items`` are *total capacity* including every
    future newcomer; ``warm_users``/``warm_items`` are visible at t=0.
    """

    num_users: int = 48
    num_items: int = 200
    warm_users: int = 32
    warm_items: int = 160
    dim: int = 8
    session_size: int = 4
    newcomer_rate: float = 0.2
    new_item_rate: float = 0.1
    arrival_gap: float = 0.01
    score_noise: float = 0.3

    def __post_init__(self) -> None:
        if self.num_users < 1 or self.num_items < 1:
            raise ConfigError("stream needs at least one user and one item")
        if not 0 < self.warm_users <= self.num_users:
            raise ConfigError("warm_users must lie in [1, num_users]")
        if not 0 < self.warm_items <= self.num_items:
            raise ConfigError("warm_items must lie in [1, num_items]")
        if self.session_size < 1:
            raise ConfigError("session_size must be >= 1")
        if not 0.0 <= self.newcomer_rate <= 1.0:
            raise ConfigError("newcomer_rate must lie in [0, 1]")
        if not 0.0 <= self.new_item_rate <= 1.0:
            raise ConfigError("new_item_rate must lie in [0, 1]")
        if self.arrival_gap < 0 or self.score_noise < 0:
            raise ConfigError("arrival_gap and score_noise must be >= 0")


@dataclass(frozen=True)
class InteractionBatch:
    """One arriving session: parallel (user, item, weight) triples."""

    step: int
    at: float
    users: np.ndarray
    items: np.ndarray
    weights: np.ndarray
    new_users: tuple[int, ...] = ()
    new_items: tuple[int, ...] = ()

    def trace(self) -> str:
        """Canonical one-line form; determinism tests compare these."""
        items = ",".join(str(i) for i in self.items.tolist())
        return (
            f"{self.step}|t={self.at:.6f}|u={int(self.users[0])}|[{items}]|"
            f"nu={','.join(map(str, self.new_users)) or '-'}|"
            f"ni={','.join(map(str, self.new_items)) or '-'}"
        )


class InteractionStream:
    """Seeded generator of sessionized batches on a shared manual clock."""

    def __init__(
        self,
        config: StreamConfig | None = None,
        clock: ManualClock | None = None,
        seed: int = 0,
    ) -> None:
        self.config = config if config is not None else StreamConfig()
        self.clock = clock if clock is not None else ManualClock()
        if not hasattr(self.clock, "advance"):
            raise ConfigError(
                "InteractionStream needs an advance-able clock "
                "(a ManualClock), got "
                f"{type(self.clock).__name__}"
            )
        self.seed = int(seed)
        self._rng = ensure_rng(seed)
        c = self.config
        # Hidden ground truth: the preferences sessions are sampled from
        # and the reference the freshness metric scores hit-rates against.
        self.user_latent = self._rng.standard_normal((c.num_users, c.dim))
        self.item_latent = self._rng.standard_normal((c.num_items, c.dim))
        self.seen_users = int(c.warm_users)
        self.seen_items = int(c.warm_items)
        self.step = 0
        #: (step, user_id) for every newcomer, in introduction order.
        self.introduced_users: list[tuple[int, int]] = []
        #: (step, item_id) for every new catalog item.
        self.introduced_items: list[tuple[int, int]] = []

    # ------------------------------------------------------------------ #
    def warm_interactions(self) -> tuple[np.ndarray, np.ndarray]:
        """Seeded t=0 history over the warm population (dataset bootstrap):
        :data:`WARM_PER_USER` interactions per warm user.

        Drawn from a *derived* RNG so consuming it never perturbs the
        arrival stream.
        """
        c = self.config
        rng = ensure_rng(self.seed + 1)
        users = np.repeat(np.arange(c.warm_users), WARM_PER_USER)
        items = np.empty(users.size, dtype=np.int64)
        for row, user in enumerate(users):
            scores = self.user_latent[user] @ self.item_latent[: c.warm_items].T
            noisy = scores + rng.standard_normal(c.warm_items)
            items[row] = int(np.argmax(noisy))
        return users.astype(np.int64), items

    # ------------------------------------------------------------------ #
    # arrival hooks — subclasses (e.g. the persona-driven stream in
    # repro.traffic.stream) override these two to change *who arrives
    # when* without touching session composition or churn bookkeeping.
    # ------------------------------------------------------------------ #
    def _draw_user(self, step: int) -> tuple[int, tuple[int, ...]]:
        """``(user, new_users)`` for this batch.

        The base implementation consumes the stream RNG in exactly the
        historical order (one ``random()``, then ``integers`` only on the
        non-newcomer branch), so refactoring this out of
        :meth:`next_batch` changed no seeded replay.
        """
        c = self.config
        rng = self._rng
        if self.seen_users < c.num_users and rng.random() < c.newcomer_rate:
            user = self.seen_users
            self.seen_users += 1
            self.introduced_users.append((step, user))
            return user, (user,)
        return int(rng.integers(self.seen_users)), ()

    def _arrival_gap(self) -> float:
        """Clock advance after the current batch (to the next arrival)."""
        return self.config.arrival_gap

    # ------------------------------------------------------------------ #
    def next_batch(self) -> InteractionBatch:
        """The next session; advances the shared clock to the next arrival."""
        c = self.config
        rng = self._rng
        step = self.step
        self.step += 1

        user, new_users = self._draw_user(step)

        new_items: tuple[int, ...] = ()
        if self.seen_items < c.num_items and rng.random() < c.new_item_rate:
            fresh_item = self.seen_items
            self.seen_items += 1
            self.introduced_items.append((step, fresh_item))
            new_items = (fresh_item,)

        # Session items: top of the user's noisy true scores over the
        # currently visible catalog.
        visible = self.seen_items
        scores = self.user_latent[user] @ self.item_latent[:visible].T
        noisy = scores + c.score_noise * rng.standard_normal(visible)
        k = min(c.session_size, visible)
        top = np.argpartition(noisy, -k)[-k:]
        items = top[np.argsort(-noisy[top], kind="stable")].astype(np.int64)
        if new_items:
            # The introducing session interacts with the new item, so it
            # is learnable from its first appearance.
            items = items.copy()
            items[-1] = new_items[0]

        at = self.clock()
        self.clock.advance(self._arrival_gap())
        return InteractionBatch(
            step=step,
            at=at,
            users=np.full(items.size, user, dtype=np.int64),
            items=items,
            weights=np.ones(items.size, dtype=np.float64),
            new_users=new_users,
            new_items=new_items,
        )
