"""Deterministic open-loop request schedules composed from personas.

A :class:`TrafficSchedule` turns a
:class:`~repro.traffic.personas.PersonaPopulation` plus a
:class:`ScheduleProfile` (horizon, diurnal day length, ramp, flash
crowds) into a sorted stream of :class:`TrafficRequest` s — *open loop*:
arrival times are fixed up front and never react to how fast the service
answers, which is what makes overload visible instead of self-throttling
(closed-loop clients politely slow down exactly when you need to see the
shed rate).

Determinism: each member's arrivals come from its own
``np.random.default_rng((seed, epoch, member))`` stream via Ogata
thinning of the member's intensity function, so the composed schedule is
reproducible per seed, is independent of member iteration order, and can
be extended window-by-window (``epoch``) without replaying earlier
windows — :class:`~repro.traffic.stream.PersonaInteractionStream` relies
on that to feed the online loop indefinitely.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sin, tau

import numpy as np

from repro.core.exceptions import ConfigError

from .personas import PersonaMember, PersonaPopulation

__all__ = ["TrafficRequest", "ScheduleProfile", "TrafficSchedule"]


@dataclass(frozen=True)
class TrafficRequest:
    """One scheduled request: who asks what, when (simulated seconds)."""

    at: float
    persona: str
    member: int
    user_id: int
    k: int = 10
    exclude_seen: bool = True

    def trace(self) -> str:
        """Canonical one-line form; determinism tests compare these."""
        return (
            f"t={self.at:.6f}|{self.persona}|m={self.member}|"
            f"u={self.user_id}|k={self.k}|x={int(self.exclude_seen)}"
        )


@dataclass(frozen=True)
class ScheduleProfile:
    """Shape of one load window.

    Parameters
    ----------
    horizon:
        Window length in simulated seconds.
    day_period:
        Length of one "day" for diurnal modulation; 0 disables it
        (members' ``diurnal_amplitude`` is then ignored).
    ramp:
        ``(start, end)`` linear rate multiplier across the window —
        ``(0.1, 1.0)`` is a ramp-up test, ``(1.0, 1.0)`` steady state.
    flash_crowds:
        ``(start, duration, multiplier)`` triples; within each interval
        every member's rate is multiplied (a thundering herd).
    rate_scale:
        Global multiplier on top of member rates (the throughput dial).
    """

    horizon: float = 4.0
    day_period: float = 0.0
    ramp: tuple[float, float] = (1.0, 1.0)
    flash_crowds: tuple[tuple[float, float, float], ...] = ()
    rate_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ConfigError("horizon must be positive")
        if self.day_period < 0:
            raise ConfigError("day_period must be >= 0")
        if min(self.ramp) < 0 or max(self.ramp) <= 0:
            raise ConfigError("ramp multipliers must be >= 0, not both 0")
        for start, duration, mult in self.flash_crowds:
            if start < 0 or duration <= 0 or mult <= 0:
                raise ConfigError(
                    f"bad flash crowd ({start}, {duration}, {mult})"
                )
        if self.rate_scale <= 0:
            raise ConfigError("rate_scale must be positive")

    # -------------------------------------------------------------- #
    def modulation(self, t: float, member: PersonaMember) -> float:
        """Rate multiplier at time ``t`` for ``member`` (>= 0)."""
        frac = min(max(t / self.horizon, 0.0), 1.0)
        mult = self.ramp[0] + (self.ramp[1] - self.ramp[0]) * frac
        for start, duration, crowd in self.flash_crowds:
            if start <= t < start + duration:
                mult *= crowd
        amp = member.archetype.diurnal_amplitude
        if self.day_period > 0 and amp > 0:
            phase = t / self.day_period + member.phase
            mult *= max(0.0, 1.0 + amp * sin(tau * phase))
        return mult * self.rate_scale

    def peak_modulation(self, member: PersonaMember) -> float:
        """An upper bound on :meth:`modulation` (the thinning envelope)."""
        mult = max(self.ramp)
        for __, ___, crowd in self.flash_crowds:
            mult *= max(1.0, crowd)
        amp = member.archetype.diurnal_amplitude
        if self.day_period > 0 and amp > 0:
            mult *= 1.0 + amp
        return mult * self.rate_scale


class TrafficSchedule:
    """A materialized, sorted, reproducible open-loop request stream."""

    def __init__(
        self,
        population: PersonaPopulation,
        profile: ScheduleProfile | None = None,
        seed: int | None = None,
        epoch: int = 0,
        start: float = 0.0,
    ) -> None:
        self.population = population
        self.profile = profile if profile is not None else ScheduleProfile()
        self.seed = int(seed) if seed is not None else population.seed
        self.epoch = int(epoch)
        self.start = float(start)
        self.horizon = self.start + self.profile.horizon
        self._requests: list[TrafficRequest] | None = None

    # -------------------------------------------------------------- #
    def _member_arrivals(self, member: PersonaMember) -> list[TrafficRequest]:
        """Ogata thinning of the member's inhomogeneous Poisson process."""
        profile = self.profile
        peak = member.rate * profile.peak_modulation(member)
        if peak <= 0:
            return []
        rng = np.random.default_rng((self.seed, self.epoch, member.member))
        arche = member.archetype
        out: list[TrafficRequest] = []
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / peak))
            if t >= profile.horizon:
                break
            intensity = member.rate * profile.modulation(t, member)
            if rng.random() * peak > intensity:
                continue  # thinned: candidate rejected
            burst = int(rng.integers(arche.burst_size[0], arche.burst_size[1] + 1))
            for j in range(burst):
                at = t + j * arche.within_gap
                if at >= profile.horizon:
                    break
                k = int(arche.k_choices[int(rng.integers(len(arche.k_choices)))])
                out.append(
                    TrafficRequest(
                        at=self.start + at,
                        persona=member.persona,
                        member=member.member,
                        user_id=member.user_id,
                        k=k,
                        exclude_seen=arche.exclude_seen,
                    )
                )
        return out

    def materialize(self) -> list[TrafficRequest]:
        """Generate (once) and return the time-sorted request list.

        Sorting key is ``(at, member, position)`` with a stable sort, so
        same-instant requests order deterministically and burst order
        within a member is preserved.
        """
        if self._requests is None:
            merged: list[TrafficRequest] = []
            for member in self.population.members:
                merged.extend(self._member_arrivals(member))
            merged.sort(key=lambda r: (r.at, r.member))
            self._requests = merged
        return self._requests

    # -------------------------------------------------------------- #
    def __iter__(self):
        return iter(self.materialize())

    def __len__(self) -> int:
        return len(self.materialize())

    def gaps(self) -> list[float]:
        """Per-request clock advance for closed-style replay drivers.

        ``gaps()[i]`` is the simulated time between serving request ``i``
        and request ``i + 1`` (the last gap runs to the horizon).
        """
        requests = self.materialize()
        out = []
        for i, r in enumerate(requests):
            nxt = (
                requests[i + 1].at if i + 1 < len(requests) else self.horizon
            )
            out.append(max(0.0, nxt - r.at))
        return out

    def request_rate(self) -> float:
        """Mean scheduled requests per simulated second."""
        span = self.horizon - self.start
        return len(self) / span if span > 0 else 0.0

    def continuation(self) -> "TrafficSchedule":
        """The next window: same population/profile, epoch + 1, shifted.

        Arrival RNG streams are keyed by epoch, so extending a run never
        replays or perturbs earlier windows.
        """
        return TrafficSchedule(
            self.population,
            self.profile,
            seed=self.seed,
            epoch=self.epoch + 1,
            start=self.horizon,
        )
