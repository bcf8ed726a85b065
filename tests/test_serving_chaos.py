"""Chaos suite: seeded fault plans driven through `RecommenderService`.

The serving contract under chaos (ISSUE 4 acceptance invariant):

1. every request receives a typed outcome — ok / degraded / shed /
   rejected — and no exception escapes the service;
2. breaker state transitions match the fault plan, verified against an
   injected :class:`ManualClock` with zero real sleeps;
3. two runs with the same seed produce bitwise-identical response traces.
"""

import numpy as np
import pytest

from repro.core.clock import ManualClock
from repro.core.recommender import Recommender
from repro.core.rng import ensure_rng
from repro.data import MOVIE_SCHEMA, generate_dataset
from repro.models.baselines import MostPopular
from repro.runtime.faults import (
    SERVING_FAULT_KINDS,
    Fault,
    FaultInjector,
    FaultPlan,
)
from repro.serving import AdmissionQueue, RecommenderService, ServeRequest

VALID_STATUSES = {"ok", "degraded", "shed", "rejected"}


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(MOVIE_SCHEMA, num_users=24, num_items=18, seed=7)


class Linear(Recommender):
    def fit(self, dataset):
        self._n = dataset.num_items
        self._mark_fitted(dataset)
        return self

    def score_all(self, user_id):
        return ((np.arange(self._n) * (user_id + 3)) % 11).astype(np.float64)


def make_chaos_service(dataset, plan, *, deadline=0.05, admission=True):
    """Service + clock + injector wired for one chaos run."""
    clock = ManualClock()
    injector = FaultInjector(plan, sleep=clock.advance)
    service = RecommenderService(
        dataset,
        primary=("primary", Linear().fit(dataset)),
        fallbacks=[("popular", MostPopular().fit(dataset))],
        default_deadline=deadline,
        breaker_config={
            "failure_threshold": 3,
            "window": 8,
            "recovery_time": 1.0,
            "half_open_probes": 2,
        },
        admission=AdmissionQueue(capacity=4, drain_rate=100.0, clock=clock)
        if admission
        else None,
        faults=injector,
        clock=clock,
    )
    return service, clock, injector


def replay(service, clock, seed, num_requests):
    """Seeded request stream; returns (traces, responses)."""
    rng = ensure_rng(seed)
    responses = []
    for __ in range(num_requests):
        user = int(rng.integers(service.dataset.num_users))
        responses.append(service.serve(ServeRequest(user_id=user, k=5)))
        clock.advance(0.004 if rng.random() < 0.7 else 0.02)
    return [r.trace() for r in responses], responses


# ---------------------------------------------------------------------- #
# invariant 1: 100% typed outcomes, nothing escapes
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_every_request_gets_a_typed_outcome(dataset, seed):
    plan = FaultPlan.random(
        150, rate=0.3, kinds=SERVING_FAULT_KINDS, seed=seed, seconds=0.12
    )
    service, clock, injector = make_chaos_service(dataset, plan)
    traces, responses = replay(service, clock, seed, 150)
    assert len(responses) == 150
    assert {r.status for r in responses} <= VALID_STATUSES
    assert injector.injected, "plan should have fired at least one fault"
    # outcome counters are consistent with the response stream
    metrics = service.metrics.snapshot()
    for status in VALID_STATUSES:
        assert metrics.get(f"status::{status}", 0) == sum(
            r.status == status for r in responses
        )


@pytest.mark.parametrize(
    "kinds",
    [("latency",), ("exception",), ("nan_scores",), SERVING_FAULT_KINDS],
)
def test_single_fault_kind_plans(dataset, kinds):
    plan = FaultPlan.random(80, rate=0.4, kinds=kinds, seed=5, seconds=0.12)
    service, clock, __ = make_chaos_service(dataset, plan)
    traces, responses = replay(service, clock, 5, 80)
    assert {r.status for r in responses} <= VALID_STATUSES
    assert any(r.degraded for r in responses)


# ---------------------------------------------------------------------- #
# invariant 2: breaker transitions match the plan, injected clock only
# ---------------------------------------------------------------------- #
def test_breaker_transitions_match_plan(dataset):
    plan = FaultPlan(
        [Fault(step=i, kind="exception") for i in range(3)]  # threshold = 3
    )
    service, clock, __ = make_chaos_service(dataset, plan, admission=False)
    breaker = service._breakers["primary"]

    # three faulted requests -> breaker opens exactly at the third
    for i in range(3):
        response = service.serve(ServeRequest(user_id=i))
        assert response.status == "degraded"
        assert response.fallback_used == "popular"
    assert breaker.state == "open"
    open_at = breaker.transitions[0]
    assert (open_at.from_state, open_at.to_state) == ("closed", "open")
    assert open_at.at == clock.now  # stamped by the injected clock

    # while open, the primary is never called: degraded via breaker rejection
    response = service.serve(ServeRequest(user_id=3))
    assert response.status == "degraded"
    assert service.metrics.count("breaker_rejected::primary") == 1

    # cooldown elapses on the manual clock -> half-open -> closed via probes
    clock.advance(1.0)
    for user in (4, 5):
        assert service.serve(ServeRequest(user_id=user)).status == "ok"
    assert breaker.state == "closed"
    assert [(t.from_state, t.to_state) for t in breaker.transitions] == [
        ("closed", "open"),
        ("open", "half_open"),
        ("half_open", "closed"),
    ]
    # the whole lifecycle happened in virtual time
    assert clock.now == pytest.approx(1.0)


def test_half_open_probe_failure_reopens(dataset):
    plan = FaultPlan(
        [Fault(step=i, kind="exception") for i in (0, 1, 2, 3)]
    )
    service, clock, __ = make_chaos_service(dataset, plan, admission=False)
    breaker = service._breakers["primary"]
    for i in range(3):
        service.serve(ServeRequest(user_id=i))
    assert breaker.state == "open"
    clock.advance(1.0)
    # request 3 carries the probe and faults again -> reopen
    assert service.serve(ServeRequest(user_id=3)).status == "degraded"
    assert breaker.state == "open"
    assert [(t.from_state, t.to_state) for t in breaker.transitions] == [
        ("closed", "open"),
        ("open", "half_open"),
        ("half_open", "open"),
    ]


# ---------------------------------------------------------------------- #
# fault-kind specific degradation paths
# ---------------------------------------------------------------------- #
def test_latency_fault_blows_deadline(dataset):
    plan = FaultPlan([Fault(step=0, kind="latency", seconds=0.2)])
    service, clock, __ = make_chaos_service(dataset, plan, deadline=0.05)
    response = service.serve(ServeRequest(user_id=0))
    assert response.status == "degraded"
    assert response.latency >= 0.2  # the injected stall is visible in metrics
    assert service.metrics.count("deadline_exceeded::primary") == 1
    assert service._breakers["primary"].snapshot()["consecutive_failures"] == 1


def test_nan_scores_fault_caught_at_boundary(dataset):
    plan = FaultPlan([Fault(step=0, kind="nan_scores")])
    service, clock, __ = make_chaos_service(dataset, plan)
    response = service.serve(ServeRequest(user_id=0))
    assert response.status == "degraded"
    assert service.metrics.count("invalid_scores::primary") == 1
    # NaNs never reach the response
    assert all(np.isfinite(s) for s in response.scores)


def test_exception_fault_isolated(dataset):
    plan = FaultPlan([Fault(step=0, kind="exception")])
    service, clock, __ = make_chaos_service(dataset, plan)
    response = service.serve(ServeRequest(user_id=0))
    assert response.status == "degraded"
    assert service.metrics.count("rung_errors::primary") == 1


def test_training_faults_ignored_by_serving_hooks(dataset):
    plan = FaultPlan([Fault(step=0, kind="raise"), Fault(step=0, kind="stall",
                                                         seconds=9.0)])
    service, clock, __ = make_chaos_service(dataset, plan)
    assert service.serve(ServeRequest(user_id=0)).status == "ok"
    assert clock.now < 9.0  # the stall never fired


# ---------------------------------------------------------------------- #
# load shedding under burst
# ---------------------------------------------------------------------- #
def test_burst_sheds_explicitly_and_recovers(dataset):
    service, clock, __ = make_chaos_service(dataset, FaultPlan())
    # no clock movement: a 10-request burst against capacity 4
    responses = [service.serve(ServeRequest(user_id=0)) for __ in range(10)]
    statuses = [r.status for r in responses]
    assert statuses[:4] == ["ok"] * 4
    assert statuses[4:] == ["shed"] * 6
    assert all("Overloaded" in r.error for r in responses[4:])
    assert service.admission.shed == 6
    clock.advance(1.0)  # backlog drains
    assert service.serve(ServeRequest(user_id=0)).status == "ok"


# ---------------------------------------------------------------------- #
# invariant 3: identical seeds -> bitwise-identical traces
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [0, 11])
def test_same_seed_identical_traces(dataset, seed):
    def run():
        plan = FaultPlan.random(
            120, rate=0.25, kinds=SERVING_FAULT_KINDS, seed=seed, seconds=0.12
        )
        service, clock, __ = make_chaos_service(dataset, plan)
        traces, __ = replay(service, clock, seed, 120)
        return traces, service.breaker_transitions(), service.metrics.snapshot()

    first, second = run(), run()
    assert first[0] == second[0]  # response traces, bitwise
    assert first[1] == second[1]  # breaker transition log
    assert first[2] == second[2]  # full metrics snapshot


def test_different_seeds_differ(dataset):
    def run(seed):
        plan = FaultPlan.random(
            120, rate=0.25, kinds=SERVING_FAULT_KINDS, seed=seed, seconds=0.12
        )
        service, clock, __ = make_chaos_service(dataset, plan)
        return replay(service, clock, seed, 120)[0]

    assert run(0) != run(1)


# ---------------------------------------------------------------------- #
# the serving cell of the fault matrix CI runs
# ---------------------------------------------------------------------- #
def test_serve_demo_smoke_small(tmp_path):
    from repro.serving.demo import chaos_cells

    trace = tmp_path / "trace.jsonl"
    (cell,) = chaos_cells(0, tmp_path, trace_out=str(trace))
    assert cell.ok, cell.problems
    assert set(cell.fired) == set(SERVING_FAULT_KINDS)
    assert trace.stat().st_size > 0


@pytest.mark.parametrize("seed", range(5))
def test_demo_replay_fires_each_planned_fault_once(seed):
    """A faulted request walks the degradation ladder once: the live rung
    is not called again for it, so no planned fault fires twice."""
    from collections import Counter

    from repro.serving.demo import NUM_REQUESTS, build_demo_service, run_replay

    service, clock, injector = build_demo_service(seed, NUM_REQUESTS)
    run_replay(service, clock, seed, NUM_REQUESTS)
    fired = Counter((f.step, f.kind) for f in injector.injected)
    assert fired
    assert [key for key, n in fired.items() if n > 1] == []
