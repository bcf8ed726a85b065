"""Seeded synthetic traffic replay through a faulty serving stack.

``python -m repro serve-demo`` builds a synthetic movie catalog, fits a
small degradation ladder (ItemKNN -> MostPopular -> static top-k), draws
a seeded serving-shaped :class:`~repro.runtime.faults.FaultPlan`
(latency spikes, raising models, NaN score vectors), and replays a bursty
request stream against the service on a :class:`ManualClock` — no real
sleeps anywhere.  It prints the degradation report: outcome counts,
fallback activations, breaker transitions, and p50/p99 latency.

``--smoke`` additionally asserts the chaos invariants CI relies on:

* every request receives a typed outcome (ok / degraded / shed /
  rejected) — nothing escapes the service;
* at least one fault fired and at least one degraded response was served
  (the plan actually exercised the ladder);
* replaying the identical seed yields a bitwise-identical response trace.
"""

from __future__ import annotations

from collections import Counter

from repro.core.clock import ManualClock
from repro.data import make_movie_dataset
from repro.models.baselines import ItemKNN, MostPopular
from repro.runtime.faults import SERVING_FAULT_KINDS, FaultInjector, FaultPlan
from repro.runtime.retry import RetryPolicy
from repro.telemetry import Telemetry

from .admission import AdmissionQueue
from .service import RecommenderService, ServeRequest

__all__ = [
    "build_demo_service",
    "run_replay",
    "demo_report",
    "run_smoke",
    "reconcile_trace_outcomes",
]

#: Replay shape: deadline tight enough that a latency fault blows it.
#: The burst gap mixture itself lives in
#: :meth:`repro.traffic.schedule.TrafficSchedule.bursty`.
DEADLINE = 0.05
LATENCY_FAULT_SECONDS = 0.12


def build_demo_service(
    seed: int = 0,
    num_requests: int = 300,
    fault_rate: float = 0.10,
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
        num_requests, rate=fault_rate, kinds=SERVING_FAULT_KINDS,
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
        retry=RetryPolicy(
            max_attempts=2, base_delay=0.005, jitter=0.0, seed=seed,
            total_budget=DEADLINE, sleep=clock.advance, clock=clock,
        ),
        clock=clock,
        telemetry=telemetry,
    )
    return service, clock, injector


def run_replay(
    service: RecommenderService,
    clock: ManualClock,
    seed: int = 0,
    num_requests: int = 300,
) -> list[str]:
    """Drive a bursty seeded request stream; returns the response traces.

    The stream is :meth:`TrafficSchedule.bursty` — the demo's original
    private generator re-expressed as a schedule, draw-for-draw RNG
    compatible — driven with the schedule's exact per-event gaps: ~70%
    of requests land instantly behind the previous one, the rest after a
    gap that lets the queue drain.
    """
    from repro.traffic.schedule import TrafficSchedule

    schedule = TrafficSchedule.bursty(
        service.dataset.num_users, num_requests, seed
    )
    traces: list[str] = []
    for request, gap in zip(schedule, schedule.gaps()):
        response = service.serve(ServeRequest(user_id=request.user_id, k=request.k))
        traces.append(response.trace())
        clock.advance(gap)
    return traces


def demo_report(service: RecommenderService, traces: list[str]) -> str:
    """Human-readable degradation report for one replay."""
    health = service.health()
    metrics = health["metrics"]
    lines = [
        "serve-demo degradation report",
        "=" * 29,
        f"requests        {metrics.get('requests', 0)}",
        f"  ok            {metrics.get('status::ok', 0)}",
        f"  degraded      {metrics.get('status::degraded', 0)}",
        f"  shed          {metrics.get('status::shed', 0)}",
        f"  rejected      {metrics.get('status::rejected', 0)}",
        f"fallbacks used  {metrics.get('fallback_activations', 0)}",
        f"deadline misses {metrics.get('deadline_exceeded', 0)}",
        f"latency p50/p99 {metrics['latency_p50']:.6f}s / {metrics['latency_p99']:.6f}s",
        f"live model      {health['live_model']} "
        f"(breaker {health['live_breaker_state']})",
        "",
        "served by rung:",
    ]
    for key in sorted(metrics):
        if key.startswith("served_by::"):
            lines.append(f"  {key.split('::', 1)[1]:12s} {metrics[key]}")
    transitions = service.breaker_transitions()
    lines.append("")
    lines.append(f"breaker transitions ({len(transitions)}):")
    lines.extend(f"  {t}" for t in transitions)
    if service.admission is not None:
        adm = service.admission.snapshot()
        lines.append("")
        lines.append(
            f"admission: {adm['admitted']} admitted, {adm['shed']} shed "
            f"(capacity {adm['capacity']}, drain {adm['drain_rate']:g}/s)"
        )
    lines.append("")
    lines.append(f"trace tail ({min(5, len(traces))} of {len(traces)}):")
    lines.extend(f"  {t}" for t in traces[-5:])
    return "\n".join(lines)


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
    for status in ("ok", "degraded", "shed", "rejected"):
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


def run_smoke(
    seeds: tuple[int, ...] = (0, 1, 2),
    num_requests: int = 200,
    trace_out: str | None = None,
) -> str:
    """Chaos smoke: invariants over a seed matrix; raises on violation.

    With ``trace_out`` the replays also run traced: exported telemetry
    must be byte-identical between duplicate runs of a seed, span
    outcomes must reconcile with the degradation counters, and the last
    seed's capture is written to ``trace_out`` (the CI job then schema-
    checks it with ``trace-report --check``).
    """
    trace = trace_out is not None
    lines = []
    for seed in seeds:
        runs = []
        for __ in range(2):
            service, clock, injector = build_demo_service(
                seed, num_requests, trace=trace
            )
            traces = run_replay(service, clock, seed, num_requests)
            runs.append((service, injector, traces))
        service, injector, traces = runs[0]
        metrics = service.metrics.snapshot()
        answered = sum(
            metrics.get(f"status::{s}", 0)
            for s in ("ok", "degraded", "shed", "rejected")
        )
        if len(traces) != num_requests or answered != num_requests:
            raise AssertionError(
                f"seed {seed}: {answered}/{num_requests} requests answered"
            )
        if not injector.injected:
            raise AssertionError(f"seed {seed}: fault plan injected nothing")
        if metrics.get("status::degraded", 0) < 1:
            raise AssertionError(f"seed {seed}: no degraded responses; ladder unused")
        if traces != runs[1][2]:
            raise AssertionError(f"seed {seed}: replay traces differ between runs")
        if trace:
            reconcile_trace_outcomes(service)
            if (
                service.telemetry.export_records()
                != runs[1][0].telemetry.export_records()
            ):
                raise AssertionError(
                    f"seed {seed}: telemetry exports differ between runs"
                )
        lines.append(
            f"seed {seed}: {num_requests} answered "
            f"(ok={metrics.get('status::ok', 0)} "
            f"degraded={metrics.get('status::degraded', 0)} "
            f"shed={metrics.get('status::shed', 0)}), "
            f"{len(injector.injected)} faults, deterministic"
        )
    if trace:
        path = service.telemetry.export_jsonl(trace_out)
        lines.append(f"trace capture (seed {seeds[-1]}) written to {path}")
    return "chaos smoke OK\n" + "\n".join(lines)
