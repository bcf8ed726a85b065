"""Persona archetypes and seeded populations behind the traffic simulator.

The survey's Table-4 scenarios (movie, book, music, product, POI, news,
social — :mod:`repro.data.scenarios`) describe *who* a KG recommender
serves; this module describes *how* those users hit it.  Five archetypes
cover the load shapes real deployments report:

* ``power_user`` — a Pareto-tailed activity multiplier per member, so a
  few members generate most of the traffic (power-law user activity);
* ``diurnal_browser`` — a steady baseline modulated by a day cycle
  (see :class:`~repro.traffic.schedule.ScheduleProfile.day_period`);
* ``bursty_sessioner`` — sparse arrivals that each expand into a
  session burst of back-to-back requests;
* ``cold_start_newcomer`` — members that are *new users*: ids sit past
  the warm population, which is what exercises cold-start serving and
  lets :class:`~repro.traffic.stream.PersonaInteractionStream` introduce
  them into the online loop;
* ``crawler`` — high-rate, large-burst, ``exclude_seen=False`` floods
  (scrapers and abuse traffic that should be shed, not served politely).

A :class:`PersonaPopulation` samples concrete members from a scenario's
archetype mix with one seeded RNG: member counts come from a largest-
remainder apportionment of the mix weights (deterministic), per-member
activity multipliers and diurnal phases from the population RNG, and
user ids are assigned so newcomer members occupy the top of the id range
(the cold slice) while everyone else lands in the warm prefix.  The same
``(scenario, num_users, seed)`` always yields the same population.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.exceptions import ConfigError
from repro.core.rng import ensure_rng

__all__ = [
    "PersonaArchetype",
    "PersonaMember",
    "PersonaPopulation",
    "ARCHETYPES",
    "SCENARIO_MIXES",
]


@dataclass(frozen=True)
class PersonaArchetype:
    """One behavioral archetype: an arrival process + request mixture.

    Parameters
    ----------
    name:
        Archetype label (stable; lands in reports and traces).
    base_rate:
        Arrival events per simulated second per member, before the
        activity multiplier and schedule-level modulation.
    rate_alpha:
        Pareto tail index for the per-member activity multiplier
        ``1 + Pareto(alpha)``; ``0`` disables it (multiplier 1.0).
        Smaller alpha = heavier tail = more extreme power users.
    diurnal_amplitude:
        Modulation depth in ``[0, 1]`` against the schedule's day cycle;
        0 means the archetype ignores the time of day.
    burst_size:
        Inclusive ``(lo, hi)`` range of requests emitted per arrival
        event (a session burst).
    within_gap:
        Simulated seconds between consecutive requests inside one burst.
    k_choices:
        The request-k mixture; each request draws uniformly from these.
    exclude_seen:
        Whether the archetype's requests ask for seen-item exclusion
        (crawlers don't — they re-fetch everything).
    newcomer:
        Members are cold-start users outside the warm id prefix.
    """

    name: str
    base_rate: float
    rate_alpha: float = 0.0
    diurnal_amplitude: float = 0.0
    burst_size: tuple[int, int] = (1, 1)
    within_gap: float = 0.0
    k_choices: tuple[int, ...] = (10,)
    exclude_seen: bool = True
    newcomer: bool = False

    def __post_init__(self) -> None:
        if self.base_rate <= 0:
            raise ConfigError(f"{self.name}: base_rate must be positive")
        if self.rate_alpha < 0:
            raise ConfigError(f"{self.name}: rate_alpha must be >= 0")
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise ConfigError(
                f"{self.name}: diurnal_amplitude must lie in [0, 1]"
            )
        lo, hi = self.burst_size
        if lo < 1 or hi < lo:
            raise ConfigError(f"{self.name}: burst_size must satisfy 1 <= lo <= hi")
        if self.within_gap < 0:
            raise ConfigError(f"{self.name}: within_gap must be >= 0")
        if not self.k_choices or any(k < 1 for k in self.k_choices):
            raise ConfigError(f"{self.name}: k_choices must be positive ints")


#: The five stock archetypes (rates are per member, per simulated second;
#: schedules scale them with ``rate_scale`` to hit a target throughput).
ARCHETYPES: dict[str, PersonaArchetype] = {
    a.name: a
    for a in (
        PersonaArchetype(
            name="power_user",
            base_rate=2.0,
            rate_alpha=1.2,
            diurnal_amplitude=0.2,
            k_choices=(10, 20),
        ),
        PersonaArchetype(
            name="diurnal_browser",
            base_rate=0.8,
            diurnal_amplitude=0.9,
            k_choices=(10,),
        ),
        PersonaArchetype(
            name="bursty_sessioner",
            base_rate=0.35,
            burst_size=(3, 8),
            within_gap=0.0005,
            k_choices=(5, 10),
        ),
        PersonaArchetype(
            name="cold_start_newcomer",
            base_rate=0.5,
            diurnal_amplitude=0.3,
            k_choices=(10,),
            newcomer=True,
        ),
        PersonaArchetype(
            name="crawler",
            base_rate=6.0,
            burst_size=(4, 12),
            within_gap=0.0,
            k_choices=(20,),
            exclude_seen=False,
        ),
    )
}

#: Archetype weight per Table-4 scenario: news/social skew diurnal and
#: bursty (feeds), product/POI carry crawler floods (price scrapers),
#: movie/book/music are the balanced catalog-browsing shapes.
SCENARIO_MIXES: dict[str, dict[str, float]] = {
    "movie": {
        "power_user": 0.25, "diurnal_browser": 0.35,
        "bursty_sessioner": 0.2, "cold_start_newcomer": 0.15, "crawler": 0.05,
    },
    "book": {
        "power_user": 0.2, "diurnal_browser": 0.4,
        "bursty_sessioner": 0.2, "cold_start_newcomer": 0.15, "crawler": 0.05,
    },
    "music": {
        "power_user": 0.35, "diurnal_browser": 0.25,
        "bursty_sessioner": 0.25, "cold_start_newcomer": 0.1, "crawler": 0.05,
    },
    "product": {
        "power_user": 0.2, "diurnal_browser": 0.3,
        "bursty_sessioner": 0.15, "cold_start_newcomer": 0.2, "crawler": 0.15,
    },
    "poi": {
        "power_user": 0.15, "diurnal_browser": 0.45,
        "bursty_sessioner": 0.15, "cold_start_newcomer": 0.15, "crawler": 0.1,
    },
    "news": {
        "power_user": 0.15, "diurnal_browser": 0.5,
        "bursty_sessioner": 0.25, "cold_start_newcomer": 0.1,
    },
    "social": {
        "power_user": 0.3, "diurnal_browser": 0.2,
        "bursty_sessioner": 0.3, "cold_start_newcomer": 0.1, "crawler": 0.1,
    },
}


@dataclass(frozen=True)
class PersonaMember:
    """One concrete simulated user: an archetype instance with its dials."""

    persona: str
    member: int  # population-global index; also the schedule's RNG key
    user_id: int
    rate: float  # arrival events / simulated second, multiplier applied
    phase: float  # diurnal phase offset in [0, 1)
    archetype: PersonaArchetype


def _apportion(weights: dict[str, float], total: int) -> dict[str, int]:
    """Largest-remainder apportionment of ``total`` members (deterministic).

    Every positive-weight archetype gets at least one member when
    ``total`` allows, so small populations still exercise every shape.
    """
    if total < 1:
        raise ConfigError("population needs at least one member")
    norm = sum(weights.values())
    if norm <= 0:
        raise ConfigError("archetype mix weights must sum to > 0")
    quotas = {name: total * w / norm for name, w in weights.items() if w > 0}
    counts = {name: int(q) for name, q in quotas.items()}
    if len(quotas) <= total:
        for name in counts:
            counts[name] = max(1, counts[name])
    while sum(counts.values()) > total:
        # Trim the most over-represented archetype (ties break by name).
        name = max(
            (n for n in counts if counts[n] > 1),
            key=lambda n: (counts[n] - quotas[n], n),
        )
        counts[name] -= 1
    remainders = sorted(
        quotas, key=lambda n: (-(quotas[n] - counts[n]), n)
    )
    i = 0
    while sum(counts.values()) < total:
        counts[remainders[i % len(remainders)]] += 1
        i += 1
    return counts


class PersonaPopulation:
    """A seeded, scenario-shaped set of :class:`PersonaMember` s.

    ``num_users`` is the id space the members address (the served
    catalog's user count); newcomer members take the top ids so the warm
    prefix ``[0, warm_users)`` matches what a bootstrap dataset covers.
    """

    def __init__(
        self,
        scenario: str,
        members: tuple[PersonaMember, ...],
        num_users: int,
        warm_users: int,
        seed: int,
    ) -> None:
        if not members:
            raise ConfigError("population has no members")
        self.scenario = scenario
        self.members = members
        self.num_users = int(num_users)
        self.warm_users = int(warm_users)
        self.seed = int(seed)

    @classmethod
    def from_scenario(
        cls,
        scenario: str,
        num_users: int,
        seed: int = 0,
        num_members: int | None = None,
    ) -> "PersonaPopulation":
        """Sample a population for one Table-4 scenario.

        The scenario's :data:`SCENARIO_MIXES` entry apportions the
        :data:`ARCHETYPES`.  ``num_members`` defaults to
        ``min(num_users, 48)`` — enough to show every archetype without
        making the merge dominate runtime.
        """
        if scenario not in SCENARIO_MIXES:
            raise ConfigError(
                f"unknown scenario {scenario!r}; choose from "
                f"{sorted(SCENARIO_MIXES)}"
            )
        mix = SCENARIO_MIXES[scenario]
        if num_users < 2:
            raise ConfigError("population needs num_users >= 2")
        total = num_members if num_members is not None else min(num_users, 48)
        total = min(total, num_users)
        counts = _apportion(mix, total)
        newcomer_count = sum(
            c for name, c in counts.items() if ARCHETYPES[name].newcomer
        )
        warm_users = num_users - newcomer_count
        if warm_users < 1:
            raise ConfigError(
                f"{newcomer_count} newcomer members leave no warm users "
                f"in a {num_users}-user id space"
            )

        rng = ensure_rng(seed)
        members: list[PersonaMember] = []
        next_newcomer = warm_users
        # Warm ids without replacement while they last, so distinct
        # members are distinct users whenever the id space allows.
        warm_pool = rng.permutation(warm_users)
        warm_cursor = 0
        for name in sorted(counts):
            arche = ARCHETYPES[name]
            for __ in range(counts[name]):
                if arche.newcomer:
                    user_id = next_newcomer
                    next_newcomer += 1
                elif warm_cursor < warm_pool.size:
                    user_id = int(warm_pool[warm_cursor])
                    warm_cursor += 1
                else:
                    user_id = int(rng.integers(warm_users))
                mult = (
                    1.0 + float(rng.pareto(arche.rate_alpha))
                    if arche.rate_alpha > 0
                    else 1.0
                )
                members.append(
                    PersonaMember(
                        persona=name,
                        member=len(members),
                        user_id=user_id,
                        rate=arche.base_rate * mult,
                        phase=float(rng.random()),
                        archetype=arche,
                    )
                )
        return cls(
            scenario=scenario,
            members=tuple(members),
            num_users=num_users,
            warm_users=warm_users,
            seed=seed,
        )

    # ------------------------------------------------------------------ #
    @property
    def personas(self) -> tuple[str, ...]:
        """Archetype names present, sorted (report ordering)."""
        return tuple(sorted({m.persona for m in self.members}))

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for m in self.members:
            out[m.persona] = out.get(m.persona, 0) + 1
        return dict(sorted(out.items()))
