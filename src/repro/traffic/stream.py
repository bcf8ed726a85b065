"""Persona-driven interaction stream: the traffic → online-loop bridge.

:class:`~repro.online.loop.OnlineLoop`'s own
:class:`~repro.online.stream.InteractionStream` draws arrivals from a
purpose-built process, not from the traffic simulator's persona streams.
:class:`PersonaInteractionStream` feeds it persona traffic by
subclassing :class:`~repro.online.stream.InteractionStream` and
overriding only the two arrival hooks:

* ``_draw_user`` follows a materialized
  :class:`~repro.traffic.schedule.TrafficSchedule` — each batch is the
  next scheduled request's member.  Members of newcomer archetypes are
  introduced as *stream* newcomers on first arrival (sequential ids,
  ``introduced_users`` bookkeeping intact — the churn matrix's
  invariants don't know the arrivals changed); warm members map
  deterministically onto the warm user prefix;
* ``_arrival_gap`` advances the shared clock to the next scheduled
  request, so inter-batch gaps carry the personas' bursts, diurnal
  cycles, and flash crowds instead of a constant.

Session composition (which items a session touches, new-item churn) is
untouched base-class behavior and consumes the stream RNG in the same
order, so everything downstream — quarantine isolation, commit cycles,
bitwise old-or-new serving — holds under persona arrivals.  When the
schedule window runs out, :meth:`~repro.traffic.schedule.TrafficSchedule.continuation`
materializes the next epoch (fresh per-member RNG streams, shifted
start), so the stream never ends before the loop does.
"""

from __future__ import annotations

from repro.core.clock import ManualClock
from repro.core.exceptions import ConfigError
from repro.online.stream import InteractionStream, StreamConfig

from .personas import PersonaPopulation
from .schedule import TrafficSchedule

__all__ = ["PersonaInteractionStream", "persona_stream_factory"]


class PersonaInteractionStream(InteractionStream):
    """An :class:`InteractionStream` whose arrivals follow personas."""

    def __init__(
        self,
        config: StreamConfig | None = None,
        clock: ManualClock | None = None,
        seed: int = 0,
        population: PersonaPopulation | None = None,
    ) -> None:
        super().__init__(config, clock=clock, seed=seed)
        c = self.config
        if population is None:
            population = PersonaPopulation.from_scenario(
                "movie", num_users=c.num_users, seed=seed,
                num_members=min(c.num_users, 24),
            )
        if population.num_users > c.num_users:
            raise ConfigError(
                f"population addresses {population.num_users} users, "
                f"stream capacity is {c.num_users}"
            )
        self.population = population
        self._schedule = TrafficSchedule(population, seed=seed)
        self._events = self._schedule.materialize()
        self._cursor = 0
        #: member index -> stream user id, bound on first arrival.
        self._member_user: dict[int, int] = {}
        self._members = {m.member: m for m in population.members}

    # ------------------------------------------------------------------ #
    def _advance_window(self) -> None:
        self._schedule = self._schedule.continuation()
        self._events = self._schedule.materialize()
        self._cursor = 0

    def _next_event(self):
        # A quiet window (rare at sane rates) is skipped, not an error.
        guard = 0
        while self._cursor >= len(self._events):
            self._advance_window()
            guard += 1
            if guard > 64:
                raise ConfigError(
                    "persona schedule produced 64 empty windows; "
                    "rate_scale is effectively zero"
                )
        event = self._events[self._cursor]
        self._cursor += 1
        return event

    # ------------------------------------------------------------------ #
    # arrival hooks
    # ------------------------------------------------------------------ #
    def _draw_user(self, step: int) -> tuple[int, tuple[int, ...]]:
        event = self._next_event()
        member = self._members[event.member]
        bound = self._member_user.get(member.member)
        if bound is not None:
            return bound, ()
        if member.archetype.newcomer and self.seen_users < self.config.num_users:
            user = self.seen_users
            self.seen_users += 1
            self.introduced_users.append((step, user))
            self._member_user[member.member] = user
            return user, (user,)
        # Warm member (or capacity exhausted): deterministic map into the
        # currently visible population — no RNG consumed.
        user = member.user_id % self.seen_users
        self._member_user[member.member] = user
        return user, ()

    def _arrival_gap(self) -> float:
        now = self.clock()
        if self._cursor < len(self._events):
            return max(0.0, self._events[self._cursor].at - now)
        return max(0.0, self._schedule.horizon - now)


def persona_stream_factory(scenario: str = "movie"):
    """A ``stream_factory`` for :func:`repro.online.harness.build_world`.

    Returns ``factory(config, clock, seed)`` building a
    :class:`PersonaInteractionStream` whose population is sampled from
    ``scenario`` per seed (sized to the stream config).
    """

    def factory(
        config: StreamConfig, clock: ManualClock, seed: int
    ) -> PersonaInteractionStream:
        population = PersonaPopulation.from_scenario(
            scenario,
            num_users=config.num_users,
            seed=seed,
            num_members=min(config.num_users, 24),
        )
        return PersonaInteractionStream(
            config, clock=clock, seed=seed, population=population
        )

    return factory
