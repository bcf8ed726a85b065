"""Seeded chaos replay through a faulty serving stack.

:func:`build_demo_service` builds a synthetic movie catalog, fits a small
degradation ladder (ItemKNN -> MostPopular -> static top-k) and draws a
seeded serving-shaped :class:`~repro.runtime.faults.FaultPlan` (latency
spikes, raising models, NaN score vectors, stale indexes);
:func:`run_replay` drives a bursty request stream against it on a
:class:`ManualClock` — no real sleeps anywhere.

:func:`chaos_cells` is the serving cell function of
``python -m repro fault-matrix``.  It replays each seed twice, traced,
and asserts the chaos invariants:

* every request receives a typed outcome (ok / degraded / shed /
  rejected) — nothing escapes the service;
* at least one fault fired and at least one degraded response was served
  (the plan actually exercised the ladder);
* replaying the identical seed yields a bitwise-identical response trace
  and telemetry export;
* per-request span outcomes reconcile exactly with the degradation
  counters.
"""

from __future__ import annotations

from collections import Counter

from repro.core.clock import ManualClock
from repro.core.rng import ensure_rng
from repro.data import make_movie_dataset
from repro.models.baselines import ItemKNN, MostPopular
from repro.runtime.faults import (
    SERVING_FAULT_KINDS,
    FaultCell,
    FaultInjector,
    FaultPlan,
)
from repro.telemetry import Telemetry

from .admission import AdmissionQueue
from .service import STATUSES, RecommenderService, ServeRequest

__all__ = [
    "build_demo_service",
    "run_replay",
    "chaos_cells",
    "reconcile_trace_outcomes",
]

#: Replay shape: deadline tight enough that a latency fault blows it.
DEADLINE = 0.05
LATENCY_FAULT_SECONDS = 0.12
#: Requests per chaos replay and the share of them that fault.
NUM_REQUESTS = 200
FAULT_RATE = 0.10
#: The replay's gap mixture: 70% of requests land one service time behind
#: the previous one, the rest after a gap that lets the queue drain.
SERVICE_GAP = 0.004
BURST_GAP = 0.02


def build_demo_service(
    seed: int = 0,
    num_requests: int = NUM_REQUESTS,
    trace: bool = False,
) -> tuple[RecommenderService, ManualClock, FaultInjector]:
    """A small fitted ladder behind a fully injected serving stack.

    With ``trace=True`` the service carries a
    :class:`~repro.telemetry.Telemetry` on the replay's shared
    :class:`ManualClock` (reachable as ``service.telemetry``), so the
    exported span timeline is bitwise-deterministic under seed.
    """
    dataset = make_movie_dataset(seed=seed)
    primary = ItemKNN(num_neighbors=10).fit(dataset)
    popular = MostPopular().fit(dataset)

    clock = ManualClock()
    telemetry = Telemetry(clock=clock) if trace else None
    plan = FaultPlan.random(
        num_requests, rate=FAULT_RATE, kinds=SERVING_FAULT_KINDS,
        seed=seed, seconds=LATENCY_FAULT_SECONDS,
    )
    injector = FaultInjector(plan, sleep=clock.advance)
    service = RecommenderService(
        dataset,
        primary=("ItemKNN", primary),
        fallbacks=[("MostPopular", popular)],
        default_deadline=DEADLINE,
        breaker_config={
            "failure_threshold": 3,
            "window": 10,
            "recovery_time": 0.5,
            "half_open_probes": 2,
        },
        admission=AdmissionQueue(capacity=6, drain_rate=120.0, clock=clock),
        faults=injector,
        clock=clock,
        telemetry=telemetry,
    )
    return service, clock, injector


def run_replay(
    service: RecommenderService,
    clock: ManualClock,
    seed: int = 0,
    num_requests: int = NUM_REQUESTS,
) -> list[str]:
    """Drive a bursty seeded request stream; returns the response traces.

    Per request, one generator seeded ``seed + 1`` draws the user, then
    whether the clock advances :data:`SERVICE_GAP` (with probability 0.7)
    or :data:`BURST_GAP` before the next one.
    """
    rng = ensure_rng(seed + 1)
    traces: list[str] = []
    for __ in range(num_requests):
        user = int(rng.integers(service.dataset.num_users))
        response = service.serve(ServeRequest(user_id=user, k=10))
        traces.append(response.trace())
        clock.advance(SERVICE_GAP if rng.random() < 0.7 else BURST_GAP)
    return traces


def reconcile_trace_outcomes(service: RecommenderService) -> dict[str, int]:
    """Assert per-request span outcomes match the degradation counters.

    Every ``serve/request`` span carries an ``outcome`` attribute; tallied
    up they must equal the service's ``status::*`` counters exactly (both
    are written by the same ``serve()`` path — a mismatch means the
    instrumentation lost or double-counted a request).  Returns the tally.
    """
    spans = service.telemetry.tracer.records()
    outcomes = Counter(
        str(s.attrs["outcome"]) for s in spans if s.name == "serve/request"
    )
    metrics = service.metrics
    for status in STATUSES:
        span_count = outcomes.get(status, 0)
        counted = metrics.count(f"status::{status}")
        if span_count != counted:
            raise AssertionError(
                f"trace/metric mismatch for {status!r}: "
                f"{span_count} spans vs {counted} counted"
            )
    if sum(outcomes.values()) != metrics.count("requests"):
        raise AssertionError(
            f"{sum(outcomes.values())} request spans for "
            f"{metrics.count('requests')} requests"
        )
    return dict(outcomes)


def chaos_cells(
    seed: int, workdir, trace_out: str | None = None
) -> list[FaultCell]:
    """Replay ``seed`` twice, traced, and check the chaos invariants.

    ``workdir`` is unused (the replay keeps nothing on disk).  With
    ``trace_out`` the first replay's telemetry capture is written there.
    """
    runs = []
    for __ in range(2):
        service, clock, injector = build_demo_service(
            seed, NUM_REQUESTS, trace=True
        )
        traces = run_replay(service, clock, seed, NUM_REQUESTS)
        runs.append((service, injector, traces))
    (service, injector, traces), (twin, __, twin_traces) = runs
    metrics = service.metrics.snapshot()
    counts = {
        s: metrics.get(f"status::{s}", 0)
        for s in STATUSES
    }
    problems = []
    answered = sum(counts.values())
    if len(traces) != NUM_REQUESTS or answered != NUM_REQUESTS:
        problems.append(f"{answered}/{NUM_REQUESTS} requests answered")
    if not injector.injected:
        problems.append("fault plan injected nothing")
    if counts["degraded"] < 1:
        problems.append("no degraded responses; ladder unused")
    if traces != twin_traces:
        problems.append("replay traces differ between runs")
    if service.telemetry.export_records() != twin.telemetry.export_records():
        problems.append("telemetry exports differ between runs")
    try:
        reconcile_trace_outcomes(service)
    except AssertionError as exc:
        problems.append(str(exc))
    if trace_out is not None:
        service.telemetry.export_jsonl(trace_out)
    fired = Counter(f.kind for f in injector.injected)
    return [FaultCell(
        "serving", seed, "replay", tuple(problems), tuple(sorted(fired)),
        summary=(
            f"{answered} answered (ok={counts['ok']} "
            f"degraded={counts['degraded']} shed={counts['shed']}), faults "
            + " ".join(f"{k}={n}" for k, n in sorted(fired.items()))
        ),
    )]
