"""Serving load benchmark: persona traffic against the two-stage service.

Drives the ``BENCH_serving.json`` configuration — a 10^5-item clustered
catalog behind :class:`~repro.retrieval.two_stage.TwoStageRecommender`
(IVF candidates + exact rerank) with an exact-scoring fallback rung —
from a seeded :class:`~repro.traffic.personas.PersonaPopulation` at
thousands of requests per *simulated* second on a ``ManualClock``.  The
run must clear the 2,000 req/simulated-second floor, reconcile exactly
against the service's own telemetry, and the report records throughput,
p50/p99 latency, and shed/degrade rates per persona.

Run as a script:

    PYTHONPATH=src python benchmarks/bench_serving.py           # full bench
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke   # CI smoke

The full run writes machine-readable results to ``--out`` (default
``benchmarks/BENCH_serving.json``).  ``--smoke`` runs a smaller catalog
and asserts the contracts CI relies on — determinism (byte-identical
reports and outcome sequences across duplicate runs), exact telemetry
reconciliation, and a scaled throughput floor — with no wall-clock
timings.  See ``docs/load_testing.md`` for the methodology.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.traffic import (
    LoadHarness,
    PersonaPopulation,
    ScheduleProfile,
    TrafficSchedule,
    build_two_stage_service,
)
from repro.traffic.report import check_bench_floor

DEFAULT_OUT = Path(__file__).resolve().parent / "BENCH_serving.json"

#: Acceptance floor: simulated requests per simulated second.
RPS_FLOOR = 2000.0


def build_run(
    num_items: int,
    num_users: int,
    num_members: int,
    horizon: float,
    rate_scale: float,
    seed: int,
    scenario: str = "movie",
) -> LoadHarness:
    """One seeded persona-load world over the two-stage service."""
    population = PersonaPopulation.from_scenario(
        scenario, num_users=num_users, seed=seed, num_members=num_members
    )
    profile = ScheduleProfile(
        horizon=horizon,
        day_period=horizon / 2,
        flash_crowds=((0.55 * horizon, 0.1 * horizon, 2.5),),
        rate_scale=rate_scale,
    )
    schedule = TrafficSchedule(population, profile, seed=seed)
    service, clock = build_two_stage_service(
        num_items=num_items, num_users=num_users, seed=seed
    )
    return LoadHarness(
        service, schedule, clock, name=f"two-stage-{num_items}", seed=seed
    )


def run(args) -> None:
    harness = build_run(
        args.items, args.users, args.members,
        args.horizon, args.rate_scale, args.seed,
    )
    schedule = harness.schedule
    scheduled_rps = schedule.request_rate()
    print(
        f"{args.items} items: {len(schedule)} requests scheduled over "
        f"{args.horizon:.1f}s simulated ({scheduled_rps:.0f} rps offered)"
    )

    t0 = time.perf_counter()
    report = harness.run()
    wall = time.perf_counter() - t0
    tally = harness.reconcile()
    check_bench_floor(report, RPS_FLOOR)

    print(report.render())
    print(
        f"\nwall clock: {wall:.2f}s for {report.sim_seconds:.2f}s simulated "
        f"({report.requests / wall:.0f} req/wall-second)"
    )
    print(
        "telemetry reconciliation: exact ("
        + ", ".join(f"{k}={v}" for k, v in tally.items())
        + ")"
    )

    results = {
        "config": {
            "num_items": args.items,
            "num_users": args.users,
            "num_members": args.members,
            "horizon_seconds": args.horizon,
            "rate_scale": args.rate_scale,
            "seed": args.seed,
            "scenario": "movie",
            "primary": "two_stage (IVF candidates + exact rerank)",
            "fallback": "exact embedding scoring",
        },
        "offered_rps": scheduled_rps,
        "rps_floor": RPS_FLOOR,
        "report": report.to_dict(),
        "reconciliation": tally,
        "wall_seconds": wall,
    }
    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {out}")


# --------------------------------------------------------------------- #
def smoke(args) -> None:
    """Small-catalog contracts run for CI: determinism + reconciliation.

    No wall-clock assertions — everything checked is simulated-time or
    bitwise.  The throughput floor is scaled to the smoke's offered rate.
    """
    num_items, num_users, num_members = 20_000, 512, 32
    horizon, rate_scale = 1.0, 8.0

    runs = []
    for __ in range(2):
        harness = build_run(
            num_items, num_users, num_members, horizon, rate_scale, args.seed
        )
        harness.run()
        harness.reconcile()
        runs.append(harness)
    first, second = runs

    if first.report.to_json() != second.report.to_json():
        raise AssertionError("LoadReport exports differ between identical runs")
    if first.outcome_trace != second.outcome_trace:
        raise AssertionError("outcome sequences differ between identical runs")

    report = first.report
    if report.requests != len(first.schedule):
        raise AssertionError(
            f"{report.requests} reported of {len(first.schedule)} scheduled"
        )
    if report.rejected:
        raise AssertionError(f"{report.rejected} requests rejected")
    if report.response_rate() < 0.5:
        raise AssertionError(
            f"response rate {report.response_rate():.3f} below 0.5"
        )
    # Offered load scales with member count; hold the run to half of it.
    floor = 0.5 * first.schedule.request_rate()
    check_bench_floor(report, floor)

    print(
        f"bench_serving smoke: {report.requests} requests at "
        f"{report.throughput_rps:.0f} rps simulated "
        f"(rr={report.response_rate():.3f}, shed={report.shed_rate():.3f}), "
        "deterministic, reconciled"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--items", type=int, default=100_000)
    parser.add_argument("--users", type=int, default=2048)
    parser.add_argument(
        "--members", type=int, default=64,
        help="persona population size (offered load scales with this)",
    )
    parser.add_argument("--horizon", type=float, default=4.0)
    parser.add_argument(
        "--rate-scale", type=float, default=9.0,
        help="multiplier on every persona's base arrival rate",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=str, default=str(DEFAULT_OUT))
    parser.add_argument(
        "--smoke", action="store_true",
        help="small determinism + reconciliation run (CI mode; no timings)",
    )
    args = parser.parse_args()
    if args.smoke:
        smoke(args)
        return
    run(args)


if __name__ == "__main__":
    main()
