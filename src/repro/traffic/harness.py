"""The load harness: drive a service from a schedule, report, reconcile.

:class:`LoadHarness` replays a :class:`~repro.traffic.schedule.TrafficSchedule`
against a :class:`~repro.serving.service.RecommenderService` open-loop on
the shared :class:`~repro.core.clock.ManualClock`: the clock is advanced
to each request's scheduled arrival (never backwards — when the service
ran long, the next request is simply served late, which is how backlog
forms), and every response is tallied per persona into reservoir-mode
:class:`~repro.telemetry.metrics.Histogram` s so quantiles stay unbiased
over arbitrarily long runs.

Service time is simulated by :class:`TimedModel`, a scoring wrapper that
advances the shared clock by a seeded lognormal sample per call — the
same injected-sleep trick the fault injector uses.  That one hook is
what makes deadlines, admission drain, breaker recovery, and the latency
distribution all behave realistically at thousands of requests per
*simulated* second while the wall clock only pays for the scoring math.

Builders at the bottom construct the two standard targets: a fitted
Table-4 scenario ladder (``build_scenario_service``, which composes with
a :class:`~repro.runtime.faults.FaultPlan` for load+chaos runs) and a
10^5-item two-stage ANN service (``build_two_stage_service``, the
``BENCH_serving.json`` configuration).
"""

from __future__ import annotations

from math import exp

import numpy as np

from repro.core.clock import ManualClock
from repro.core.dataset import Dataset
from repro.core.exceptions import ConfigError
from repro.core.interactions import InteractionMatrix
from repro.core.rng import ensure_rng
from repro.runtime.faults import SERVING_FAULT_KINDS, FaultInjector, FaultPlan
from repro.serving.admission import AdmissionQueue
from repro.serving.service import STATUSES, RecommenderService, ServeRequest
from repro.telemetry.metrics import MetricRegistry

from .report import LoadReport, PersonaStats, reconcile
from .schedule import TrafficSchedule

__all__ = [
    "TimedModel",
    "LoadHarness",
    "build_scenario_service",
    "build_two_stage_service",
]

#: Latency histogram bounds fine enough for sub-millisecond service times.
LATENCY_BOUNDS = tuple(
    base * scale
    for scale in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
    for base in (1.0, 2.5, 5.0)
) + (1.0,)

#: Per-request deadline of both builders' services, in seconds.
DEADLINE = 0.02
#: Median service time of both builders' primary rungs, in seconds.
SERVICE_TIME = 0.0002
#: Log-space spread of :class:`TimedModel`'s lognormal service time.
SIGMA = 0.35
#: Circuit breaker of every model rung both builders wire.
BREAKER_CONFIG = {
    "failure_threshold": 5,
    "window": 20,
    "recovery_time": 0.25,
    "half_open_probes": 2,
}


class TimedModel:
    """Scoring wrapper that charges simulated service time per call.

    Each ``score_all``/``score_candidates`` call advances the shared
    clock by ``mean * exp(SIGMA * N(0, 1))`` seconds from a dedicated
    seeded RNG — a lognormal service time with median ``mean``.  The
    draw order is the call order, which the schedule fixes, so latencies
    are deterministic per seed.  Everything else (fit, retrieval
    protocol, ``generation``, ``supports_candidates``) delegates to the
    wrapped model, so a :class:`TimedModel` can sit on any rung,
    including candidate rungs.
    """

    def __init__(
        self,
        inner,
        clock: ManualClock,
        mean: float = SERVICE_TIME,
        seed: int = 0,
    ) -> None:
        if mean <= 0:
            raise ConfigError("TimedModel needs mean > 0")
        self.inner = inner
        self.clock = clock
        self.mean = float(mean)
        self._rng = ensure_rng(seed)

    def _charge(self) -> None:
        self.clock.advance(
            self.mean * exp(SIGMA * float(self._rng.standard_normal()))
        )

    # ------------------------------------------------------------------ #
    @property
    def supports_candidates(self) -> bool:
        return bool(getattr(self.inner, "supports_candidates", False))

    def score_all(self, user_id: int):
        self._charge()
        return self.inner.score_all(user_id)

    def score_candidates(self, user_id: int, k: int | None = None):
        self._charge()
        return self.inner.score_candidates(user_id, k)

    def fit(self, dataset):
        self.inner.fit(dataset)
        return self

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


class LoadHarness:
    """Replay one schedule against one service; produce a LoadReport.

    The harness keeps its *own* :class:`MetricRegistry` (reservoir-mode
    latency histograms, per-persona outcome counters) precisely so
    :func:`~repro.traffic.report.reconcile` has two independently
    written sets of books to cross-check.
    """

    def __init__(
        self,
        service: RecommenderService,
        schedule: TrafficSchedule,
        clock: ManualClock,
        name: str = "load",
        seed: int = 0,
    ) -> None:
        self.service = service
        self.schedule = schedule
        self.clock = clock
        self.name = name
        self.seed = int(seed)
        self.registry = MetricRegistry()
        #: ``persona:status`` per request, in serve order (determinism
        #: tests compare these across runs).
        self.outcome_trace: list[str] = []
        self.report: LoadReport | None = None

    # ------------------------------------------------------------------ #
    def _persona_hist(self, persona: str):
        return self.registry.histogram(
            "traffic.latency_seconds",
            bounds=LATENCY_BOUNDS,
            reservoir=True,
            reservoir_seed=self.seed,
            persona=persona,
        )

    def run(self) -> LoadReport:
        """Serve every scheduled request; returns (and stores) the report."""
        service, clock = self.service, self.clock
        start = clock()
        aggregate = self.registry.histogram(
            "traffic.latency_seconds",
            bounds=LATENCY_BOUNDS,
            reservoir=True,
            reservoir_seed=self.seed,
            persona="_all",
        )
        for request in self.schedule:
            if request.at > clock():
                clock.advance(request.at - clock())
            response = service.serve(
                ServeRequest(
                    user_id=request.user_id,
                    k=request.k,
                    exclude_seen=request.exclude_seen,
                )
            )
            self.registry.counter(
                "traffic.requests", persona=request.persona
            ).inc()
            self.registry.counter(
                "traffic.status", persona=request.persona,
                status=response.status,
            ).inc()
            self._persona_hist(request.persona).observe(response.latency)
            aggregate.observe(response.latency)
            self.outcome_trace.append(f"{request.persona}:{response.status}")
        elapsed = max(clock() - start, self.schedule.horizon - start)
        self.report = self._build_report(elapsed)
        return self.report

    # ------------------------------------------------------------------ #
    def _persona_stats(self) -> tuple[PersonaStats, ...]:
        personas = sorted(
            {r.persona for r in self.schedule.materialize()}
        )
        out = []
        for persona in personas:
            counts = {
                s: self.registry.counter(
                    "traffic.status", persona=persona, status=s
                ).value
                for s in STATUSES
            }
            hist = self._persona_hist(persona)
            out.append(
                PersonaStats(
                    persona=persona,
                    requests=int(
                        self.registry.counter(
                            "traffic.requests", persona=persona
                        ).value
                    ),
                    ok=int(counts["ok"]),
                    degraded=int(counts["degraded"]),
                    shed=int(counts["shed"]),
                    rejected=int(counts["rejected"]),
                    latency_p50=float(hist.quantile(50.0)),
                    latency_p99=float(hist.quantile(99.0)),
                    latency_mean=float(hist.mean),
                )
            )
        return tuple(out)

    def _build_report(self, elapsed: float) -> LoadReport:
        personas = self._persona_stats()
        aggregate = self._persona_hist("_all")
        trips = sum(
            1 for t in self.service.breaker_transitions() if "-> open" in t
        )
        injector = self.service.faults
        return LoadReport(
            name=self.name,
            seed=self.seed,
            requests=sum(p.requests for p in personas),
            sim_seconds=float(elapsed),
            throughput_rps=(
                sum(p.requests for p in personas) / elapsed if elapsed else 0.0
            ),
            ok=sum(p.ok for p in personas),
            degraded=sum(p.degraded for p in personas),
            shed=sum(p.shed for p in personas),
            rejected=sum(p.rejected for p in personas),
            latency_p50=float(aggregate.quantile(50.0)),
            latency_p99=float(aggregate.quantile(99.0)),
            latency_mean=float(aggregate.mean),
            breaker_trips=trips,
            faults_injected=len(injector.injected) if injector else 0,
            personas=personas,
        )

    def reconcile(self) -> dict[str, int]:
        """Cross-check the report against the service's telemetry."""
        if self.report is None:
            raise ConfigError("run() the harness before reconciling")
        return reconcile(self.report, self.service)


# ---------------------------------------------------------------------- #
# service builders
# ---------------------------------------------------------------------- #
def build_scenario_service(
    scenario: str = "movie",
    seed: int = 0,
    num_requests: int = 2000,
    fault_rate: float = 0.0,
    trace: bool = False,
) -> tuple[RecommenderService, ManualClock, FaultInjector | None]:
    """A fitted Table-4 scenario ladder behind a timed serving stack.

    ItemKNN primary + MostPopular fallback (+ implicit static rung),
    both wrapped in :class:`TimedModel`; the admission queue (48 deep,
    draining 3,000 requests a second) and the optional serving-fault plan
    share the returned clock.
    """
    from repro.data import SCENARIO_SCHEMAS
    from repro.data.synthetic import generate_dataset
    from repro.models.baselines import ItemKNN, MostPopular
    from repro.telemetry import Telemetry

    if scenario not in SCENARIO_SCHEMAS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; choose from "
            f"{sorted(SCENARIO_SCHEMAS)}"
        )
    dataset = generate_dataset(SCENARIO_SCHEMAS[scenario], seed=seed)
    clock = ManualClock()
    primary = TimedModel(
        ItemKNN(num_neighbors=10).fit(dataset), clock,
        mean=SERVICE_TIME, seed=seed,
    )
    fallback = TimedModel(
        MostPopular().fit(dataset), clock,
        mean=SERVICE_TIME / 2, seed=seed + 1,
    )
    injector = None
    if fault_rate > 0:
        plan = FaultPlan.random(
            num_requests, rate=fault_rate, kinds=SERVING_FAULT_KINDS,
            seed=seed, seconds=0.05,
        )
        injector = FaultInjector(plan, sleep=clock.advance)
    telemetry = Telemetry(clock=clock) if trace else None
    service = RecommenderService(
        dataset,
        primary=("ItemKNN", primary),
        fallbacks=[("MostPopular", fallback)],
        default_deadline=DEADLINE,
        breaker_config=BREAKER_CONFIG,
        admission=AdmissionQueue(capacity=48, drain_rate=3000.0, clock=clock),
        faults=injector,
        clock=clock,
        telemetry=telemetry,
    )
    return service, clock, injector


def build_two_stage_service(
    num_items: int = 100_000,
    num_users: int = 2048,
    seed: int = 0,
) -> tuple[RecommenderService, ManualClock]:
    """A 10^5-item ANN-fronted service (the serving-bench configuration).

    Primary rung: :class:`TwoStageRecommender` (IVF candidates + exact
    rerank) over a clustered 32-dimensional synthetic catalog; fallback:
    the same embeddings scored exactly.  Both are
    :class:`TimedModel`-wrapped on the shared clock, behind an admission
    queue 64 deep that drains 4,000 requests a second.
    """
    from repro.retrieval import IvfIndex
    from repro.retrieval.two_stage import (
        ArrayEmbeddingRecommender,
        TwoStageRecommender,
    )

    dim = 32
    rng = np.random.default_rng(seed)
    num_centers = 256
    centers = rng.standard_normal((num_centers, dim))
    items = centers[rng.integers(num_centers, size=num_items)]
    items = items + 0.25 * rng.standard_normal((num_items, dim))
    users = centers[rng.integers(num_centers, size=num_users)]
    users = users + 0.25 * rng.standard_normal((num_users, dim))

    # A sparse seen-history so exclude_seen has something to exclude.
    hist_users = np.repeat(np.arange(num_users), 3)
    hist_items = rng.integers(num_items, size=hist_users.size)
    dataset = Dataset(
        name=f"two-stage-catalog-s{seed}",
        interactions=InteractionMatrix(
            hist_users.astype(np.int64), hist_items.astype(np.int64),
            num_users, num_items,
        ),
    )

    clock = ManualClock()
    base = ArrayEmbeddingRecommender(users, items).fit(dataset)
    two_stage = TwoStageRecommender(
        base, IvfIndex(seed=seed), k_candidates=128
    ).fit(dataset)
    two_stage.sync_index()
    primary = TimedModel(two_stage, clock, mean=SERVICE_TIME, seed=seed)
    fallback = TimedModel(base, clock, mean=SERVICE_TIME * 4, seed=seed + 1)
    service = RecommenderService(
        dataset,
        primary=("two_stage", primary),
        fallbacks=[("exact", fallback)],
        default_deadline=DEADLINE,
        breaker_config=BREAKER_CONFIG,
        admission=AdmissionQueue(capacity=64, drain_rate=4000.0, clock=clock),
        clock=clock,
    )
    return service, clock
