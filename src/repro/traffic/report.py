"""Load-test results: per-persona and aggregate, reconciled, exportable.

A :class:`LoadReport` is what a :class:`~repro.traffic.harness.LoadHarness`
run produces: throughput, nearest-rank latency quantiles, and outcome
rates, both aggregate and per persona.  Two properties matter more than
the numbers themselves:

* **deterministic export** — :meth:`LoadReport.to_json` is
  ``json.dumps(sort_keys=True)`` over values derived entirely from the
  :class:`~repro.core.clock.ManualClock` and seeded RNGs, so the same
  seed yields a byte-identical file (the determinism tests and the
  ``BENCH_serving.json`` trajectory both rely on it);
* **exact reconciliation** — :func:`reconcile` cross-checks every
  harness tally against the service's own telemetry counters
  (``serve.status::*``, ``serve.requests``, latency observation counts).
  The two are written by different code on different sides of the
  request path; agreement to the unit proves neither lost nor
  double-counted a request.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from repro.core.exceptions import ConfigError
from repro.serving.service import STATUSES

__all__ = ["PersonaStats", "LoadReport", "reconcile", "check_bench_floor"]


@dataclass(frozen=True)
class PersonaStats:
    """Outcome tallies and latency quantiles for one persona."""

    persona: str
    requests: int
    ok: int
    degraded: int
    shed: int
    rejected: int
    latency_p50: float
    latency_p99: float
    latency_mean: float

    @property
    def answered(self) -> int:
        return self.ok + self.degraded

    def shed_rate(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    def degrade_rate(self) -> float:
        return self.degraded / self.requests if self.requests else 0.0


@dataclass(frozen=True)
class LoadReport:
    """One load run, aggregate + per persona (all rates in [0, 1])."""

    name: str
    seed: int
    requests: int
    sim_seconds: float
    throughput_rps: float
    ok: int
    degraded: int
    shed: int
    rejected: int
    latency_p50: float
    latency_p99: float
    latency_mean: float
    breaker_trips: int
    faults_injected: int
    personas: tuple[PersonaStats, ...]

    # -------------------------------------------------------------- #
    @property
    def answered(self) -> int:
        return self.ok + self.degraded

    def response_rate(self) -> float:
        return self.answered / self.requests if self.requests else 0.0

    def shed_rate(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    def degrade_rate(self) -> float:
        return self.degraded / self.requests if self.requests else 0.0

    # -------------------------------------------------------------- #
    def to_dict(self) -> dict:
        out = asdict(self)
        out["personas"] = [asdict(p) for p in self.personas]
        out["response_rate"] = self.response_rate()
        out["shed_rate"] = self.shed_rate()
        out["degrade_rate"] = self.degrade_rate()
        return out

    def to_json(self) -> str:
        """Deterministic (sorted-key) JSON export."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    # -------------------------------------------------------------- #
    def render(self) -> str:
        """Human-readable report (``bench_serving.py`` prints it)."""
        lines = [
            f"load report: {self.name} (seed {self.seed})",
            "=" * max(29, len(self.name) + 25),
            f"requests        {self.requests} over {self.sim_seconds:.3f} "
            f"simulated seconds",
            f"throughput      {self.throughput_rps:.0f} req/s (simulated)",
            f"  ok            {self.ok}",
            f"  degraded      {self.degraded}",
            f"  shed          {self.shed}",
            f"  rejected      {self.rejected}",
            f"response rate   {self.response_rate():.4f}",
            f"shed rate       {self.shed_rate():.4f}",
            f"degrade rate    {self.degrade_rate():.4f}",
            f"latency p50/p99 {self.latency_p50 * 1e3:.3f}ms / "
            f"{self.latency_p99 * 1e3:.3f}ms (mean "
            f"{self.latency_mean * 1e3:.3f}ms)",
            f"breaker trips   {self.breaker_trips}",
            f"faults injected {self.faults_injected}",
            "",
            f"{'persona':<20s} {'req':>6s} {'ok':>6s} {'degr':>5s} "
            f"{'shed':>5s} {'rej':>4s} {'p50ms':>8s} {'p99ms':>8s}",
        ]
        for p in self.personas:
            lines.append(
                f"{p.persona:<20s} {p.requests:>6d} {p.ok:>6d} "
                f"{p.degraded:>5d} {p.shed:>5d} {p.rejected:>4d} "
                f"{p.latency_p50 * 1e3:>8.3f} {p.latency_p99 * 1e3:>8.3f}"
            )
        return "\n".join(lines)


def reconcile(report: LoadReport, service) -> dict[str, int]:
    """Assert the report's tallies equal the service's telemetry counters.

    Raises :class:`AssertionError` on the first mismatch; returns the
    reconciled ``{status: count}`` tally on success.  Checks, exactly:

    * per-status totals vs ``serve.status::<s>`` counters,
    * per-persona sums vs the aggregate,
    * total requests vs ``serve.requests``,
    * latency observations vs the service latency histogram count.
    """
    metrics = service.metrics
    tally: dict[str, int] = {}
    for status in STATUSES:
        mine = getattr(report, status)
        per_persona = sum(getattr(p, status) for p in report.personas)
        if per_persona != mine:
            raise AssertionError(
                f"persona {status} tallies sum to {per_persona}, "
                f"aggregate says {mine}"
            )
        theirs = metrics.count(f"status::{status}")
        if mine != theirs:
            raise AssertionError(
                f"report counted {mine} {status} responses, service "
                f"telemetry counted {theirs}"
            )
        tally[status] = mine
    total = sum(tally.values())
    if total != report.requests:
        raise AssertionError(
            f"{total} statused responses for {report.requests} requests"
        )
    if total != metrics.count("requests"):
        raise AssertionError(
            f"report saw {total} requests, service counted "
            f"{metrics.count('requests')}"
        )
    observed = metrics.num_observations
    if observed != report.requests:
        raise AssertionError(
            f"service observed {observed} latencies for "
            f"{report.requests} requests"
        )
    return tally


def check_bench_floor(report: LoadReport, min_rps: float) -> None:
    """Raise unless the run sustained ``min_rps`` simulated throughput."""
    if report.throughput_rps < min_rps:
        raise ConfigError(
            f"sustained {report.throughput_rps:.0f} req/s simulated, "
            f"needed >= {min_rps:.0f}"
        )
