"""Persona load runs: the traffic cells of ``python -m repro fault-matrix``.

:func:`build_load_world` builds one scenario world (population →
schedule → timed service).  :func:`load_cells` asserts, per seed, the
invariants the load harness promises — all simulated time, no
wall-clock timings:

* every scheduled request receives a typed outcome (none lost, none
  double-counted: the report reconciles exactly against telemetry);
* same seed → byte-identical ``LoadReport`` JSON and identical
  per-request outcome sequence across two runs, clean *and* with
  serving faults injected;
* clean runs answer >= 70% of requests, shed <= 40%, and shed at least
  one request (the flash crowd actually overloads the queue);
* a persona-driven online churn cell passes with its invariants intact
  (the traffic → online bridge stays wired).
"""

from __future__ import annotations

from pathlib import Path

from repro.runtime.faults import FaultCell

from .harness import LoadHarness, build_scenario_service
from .personas import PersonaPopulation
from .schedule import ScheduleProfile, TrafficSchedule

__all__ = ["build_load_world", "load_cells"]

#: The standard load window: two simulated seconds with a diurnal cycle
#: and one 3x flash crowd near the end.
DEFAULT_PROFILE = ScheduleProfile(
    horizon=2.0,
    day_period=1.0,
    flash_crowds=((0.8, 0.2, 3.0),),
    rate_scale=8.0,
)

#: User id space of every load world.
NUM_USERS = 120
SMOKE_FAULT_RATE = 0.05
MIN_RESPONSE_RATE = 0.7
MAX_SHED_RATE = 0.4


def build_load_world(
    scenario: str = "movie",
    seed: int = 0,
    fault_rate: float = 0.0,
    trace: bool = False,
):
    """(harness, service, schedule) for one seeded scenario load run over
    :data:`DEFAULT_PROFILE` and :data:`NUM_USERS` users."""
    population = PersonaPopulation.from_scenario(
        scenario, num_users=NUM_USERS, seed=seed
    )
    schedule = TrafficSchedule(population, DEFAULT_PROFILE, seed=seed)
    service, clock, __ = build_scenario_service(
        scenario, seed=seed, num_requests=len(schedule),
        fault_rate=fault_rate, trace=trace,
    )
    harness = LoadHarness(
        service, schedule, clock, name=f"{scenario}-load", seed=seed
    )
    return harness, service, schedule


def _one_run(seed: int, fault_rate: float) -> LoadHarness:
    harness, __, ___ = build_load_world(
        "movie", seed=seed, fault_rate=fault_rate, trace=True
    )
    harness.run()
    return harness


def _problems(harness: LoadHarness, clean: bool) -> list[str]:
    report = harness.report
    scheduled = len(harness.schedule)
    problems = []
    if len(harness.outcome_trace) != scheduled:
        problems.append(
            f"{len(harness.outcome_trace)} outcomes for {scheduled} "
            "scheduled requests"
        )
    if report.requests != scheduled:
        problems.append(
            f"report covers {report.requests} of {scheduled} requests"
        )
    if report.rejected:
        problems.append(
            f"{report.rejected} requests rejected (schedule emitted "
            "invalid requests)"
        )
    try:
        harness.reconcile()
    except AssertionError as exc:
        problems.append(f"telemetry reconciliation: {exc}")
    if clean:
        if report.response_rate() < MIN_RESPONSE_RATE:
            problems.append(
                f"response rate {report.response_rate():.3f} below "
                f"{MIN_RESPONSE_RATE}"
            )
        if report.shed_rate() > MAX_SHED_RATE:
            problems.append(
                f"shed rate {report.shed_rate():.3f} above {MAX_SHED_RATE}"
            )
        if report.shed == 0:
            problems.append(
                "flash crowd shed nothing; harness is not exercising overload"
            )
    return problems


def load_cells(seed: int, workdir: str | Path) -> list[FaultCell]:
    """Clean and faulted load runs (each twice) plus the online bridge."""
    from repro.online.harness import run_churn_cell
    from repro.traffic.stream import persona_stream_factory

    cells = []
    for fault_rate, label in ((0.0, "clean"), (SMOKE_FAULT_RATE, "faulted")):
        runs = [_one_run(seed, fault_rate) for __ in range(2)]
        problems = _problems(runs[0], clean=fault_rate == 0.0)
        if runs[0].report.to_json() != runs[1].report.to_json():
            problems.append("LoadReport exports differ between runs")
        if runs[0].outcome_trace != runs[1].outcome_trace:
            problems.append(
                "per-request outcome sequences differ between runs"
            )
        injector = runs[0].service.faults
        report = runs[0].report
        cells.append(FaultCell(
            "traffic", seed, label, tuple(problems),
            tuple(sorted({f.kind for f in injector.injected}))
            if injector is not None else (),
            summary=(
                f"{report.requests} requests, "
                f"rr={report.response_rate():.3f} "
                f"shed={report.shed_rate():.3f} "
                f"deg={report.degrade_rate():.3f} "
                f"p99={report.latency_p99 * 1e3:.3f}ms"
            ),
        ))
    bridge = run_churn_cell(
        Path(workdir) / "online-bridge", seed, "none",
        stream_factory=persona_stream_factory(scenario="news"),
    )
    cells.append(FaultCell(
        "traffic", seed, "online_bridge", bridge.problems,
        summary=bridge.summary,
    ))
    return cells
