"""Tests for the persona traffic simulator and load harness (`repro.traffic`).

Covers the determinism contract (same seed -> byte-identical LoadReport
export and identical per-request outcome sequence, clean and faulted),
exact telemetry reconciliation, the chaos replay's bursty request stream,
the exact-arithmetic admission queue regression, reservoir histograms,
and the persona-driven online stream bridge.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import ManualClock
from repro.core.exceptions import ConfigError, Overloaded
from repro.core.rng import ensure_rng
from repro.serving.admission import AdmissionQueue
from repro.serving.demo import run_replay
from repro.telemetry.metrics import Histogram, MetricRegistry
from repro.traffic import (
    SCENARIO_MIXES,
    PersonaArchetype,
    PersonaPopulation,
    ScheduleProfile,
    TimedModel,
    TrafficSchedule,
)
from repro.traffic import demo as traffic_demo
from repro.traffic import harness as traffic_harness
from repro.traffic.demo import build_load_world
from repro.traffic.report import check_bench_floor
from repro.traffic.stream import PersonaInteractionStream


# --------------------------------------------------------------------- #
# personas
# --------------------------------------------------------------------- #
class TestPersonaPopulation:
    def test_same_seed_same_members(self):
        a = PersonaPopulation.from_scenario("movie", num_users=100, seed=3)
        b = PersonaPopulation.from_scenario("movie", num_users=100, seed=3)
        assert a.members == b.members

    def test_different_seed_differs(self):
        a = PersonaPopulation.from_scenario("movie", num_users=100, seed=3)
        b = PersonaPopulation.from_scenario("movie", num_users=100, seed=4)
        assert a.members != b.members

    def test_every_mix_persona_represented(self):
        for scenario, mix in SCENARIO_MIXES.items():
            pop = PersonaPopulation.from_scenario(
                scenario, num_users=64, seed=0
            )
            assert set(pop.counts()) == set(mix), scenario
            assert all(v >= 1 for v in pop.counts().values())

    def test_newcomers_take_top_user_ids(self):
        pop = PersonaPopulation.from_scenario("movie", num_users=50, seed=1)
        newcomer_ids = {
            m.user_id for m in pop.members if m.archetype.newcomer
        }
        warm_ids = {
            m.user_id for m in pop.members if not m.archetype.newcomer
        }
        assert newcomer_ids and warm_ids
        assert min(newcomer_ids) >= pop.warm_users
        assert max(warm_ids) < pop.warm_users
        assert max(newcomer_ids) < 50

    def test_warm_users_unique_while_ids_last(self):
        pop = PersonaPopulation.from_scenario("movie", num_users=200, seed=2)
        warm = [m.user_id for m in pop.members if not m.archetype.newcomer]
        assert len(warm) == len(set(warm))

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            PersonaPopulation.from_scenario("no-such", num_users=10)

    def test_archetype_validation(self):
        with pytest.raises(ConfigError):
            PersonaArchetype(name="bad", base_rate=-1.0)
        with pytest.raises(ConfigError):
            PersonaArchetype(name="bad", base_rate=1.0, burst_size=(3, 2))


# --------------------------------------------------------------------- #
# schedule
# --------------------------------------------------------------------- #
class TestTrafficSchedule:
    def _schedule(self, seed=0, horizon=1.0):
        pop = PersonaPopulation.from_scenario("movie", num_users=60, seed=seed)
        profile = ScheduleProfile(horizon=horizon, rate_scale=4.0)
        return TrafficSchedule(pop, profile, seed=seed)

    def test_deterministic(self):
        a = [r.trace() for r in self._schedule(seed=5)]
        b = [r.trace() for r in self._schedule(seed=5)]
        assert a == b

    def test_sorted_within_window(self):
        sched = self._schedule(seed=1)
        times = [r.at for r in sched]
        assert times == sorted(times)
        assert all(0.0 <= t < sched.horizon for t in times)

    def test_continuation_advances_window(self):
        sched = self._schedule(seed=2)
        nxt = sched.continuation()
        assert nxt.epoch == sched.epoch + 1
        assert nxt.start == pytest.approx(sched.horizon)
        assert len(nxt) > 0
        assert all(r.at >= sched.horizon for r in nxt)

    def test_rate_scale_scales_volume(self):
        pop = PersonaPopulation.from_scenario("movie", num_users=60, seed=0)
        lo = TrafficSchedule(pop, ScheduleProfile(horizon=2.0, rate_scale=2.0))
        hi = TrafficSchedule(pop, ScheduleProfile(horizon=2.0, rate_scale=8.0))
        assert len(hi) > 2 * len(lo)

    def test_flash_crowd_densifies(self):
        pop = PersonaPopulation.from_scenario("movie", num_users=60, seed=0)
        flat = TrafficSchedule(
            pop, ScheduleProfile(horizon=2.0, rate_scale=4.0)
        )
        crowd = TrafficSchedule(
            pop,
            ScheduleProfile(
                horizon=2.0, rate_scale=4.0,
                flash_crowds=((1.0, 0.5, 4.0),),
            ),
        )

        def in_window(schedule):
            return sum(1 for r in schedule if 1.0 <= r.at < 1.5)

        assert in_window(crowd) > 1.5 * in_window(flat)

    def test_request_rate(self):
        sched = self._schedule(seed=0, horizon=2.0)
        assert sched.request_rate() == pytest.approx(len(sched) / 2.0)


class TestBurstySchedule:
    """`run_replay`'s request stream must be draw-for-draw the old demo loop."""

    def _legacy(self, num_users, num_requests, seed):
        rng = ensure_rng(seed + 1)
        users, gaps = [], []
        for __ in range(num_requests):
            users.append(int(rng.integers(num_users)))
            gaps.append(0.004 if rng.random() < 0.7 else 0.02)
        return users, gaps

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_matches_legacy_generator(self, seed):
        users, gaps = self._legacy(40, 120, seed)
        clock = ManualClock()
        served = []

        def serve(request):
            served.append((request.user_id, request.k, clock()))
            return SimpleNamespace(trace=lambda: "")

        service = SimpleNamespace(dataset=SimpleNamespace(num_users=40), serve=serve)
        run_replay(service, clock, seed, 120)
        assert [u for u, __, ___ in served] == users
        assert {k for __, k, ___ in served} == {10}
        # Request i is served after the first i gaps have elapsed.
        at = [0.0]
        for gap in gaps[:-1]:
            at.append(at[-1] + gap)
        assert [t for __, ___, t in served] == at


# --------------------------------------------------------------------- #
# timed model
# --------------------------------------------------------------------- #
class _Scored:
    supports_candidates = False

    def __init__(self):
        self.calls = 0

    def score_all(self, user_id):
        self.calls += 1
        return np.arange(5, dtype=np.float64)

    def extra(self):
        return "delegated"


class TestTimedModel:
    def test_charges_deterministic_time(self):
        clock_a, clock_b = ManualClock(), ManualClock()
        a = TimedModel(_Scored(), clock_a, mean=0.001, seed=9)
        b = TimedModel(_Scored(), clock_b, mean=0.001, seed=9)
        for __ in range(10):
            a.score_all(0)
            b.score_all(0)
        assert clock_a() == clock_b()
        assert clock_a() > 0.0

    def test_median_is_mean(self, monkeypatch):
        monkeypatch.setattr(traffic_harness, "SIGMA", 0.0)
        clock = ManualClock()
        model = TimedModel(_Scored(), clock, mean=0.002, seed=0)
        model.score_all(0)
        assert clock() == pytest.approx(0.002)

    def test_delegates(self):
        model = TimedModel(_Scored(), ManualClock(), mean=0.001)
        assert model.extra() == "delegated"
        assert model.supports_candidates is False
        assert model.inner.calls == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            TimedModel(_Scored(), ManualClock(), mean=0.0)


# --------------------------------------------------------------------- #
# load harness determinism + reconciliation
# --------------------------------------------------------------------- #
QUICK = ScheduleProfile(
    horizon=0.5, day_period=0.5, flash_crowds=((0.2, 0.1, 3.0),),
    rate_scale=6.0,
)


@pytest.fixture
def quick_world(monkeypatch):
    """Shrink :func:`build_load_world` to the QUICK profile over 60 users."""
    monkeypatch.setattr(traffic_demo, "DEFAULT_PROFILE", QUICK)
    monkeypatch.setattr(traffic_demo, "NUM_USERS", 60)


def _quick_run(seed, fault_rate=0.0):
    harness, service, __ = build_load_world(
        "movie", seed=seed, fault_rate=fault_rate
    )
    harness.run()
    return harness, service


@pytest.mark.usefixtures("quick_world")
class TestLoadHarness:
    @pytest.mark.parametrize("fault_rate", [0.0, 0.08])
    def test_same_seed_byte_identical(self, fault_rate):
        a, __ = _quick_run(11, fault_rate)
        b, __ = _quick_run(11, fault_rate)
        assert a.report.to_json() == b.report.to_json()
        assert a.outcome_trace == b.outcome_trace

    def test_different_seed_differs(self):
        a, __ = _quick_run(0)
        b, __ = _quick_run(1)
        assert a.report.to_json() != b.report.to_json()

    def test_every_request_answered(self):
        harness, __ = _quick_run(3)
        assert len(harness.outcome_trace) == len(harness.schedule)
        assert harness.report.requests == len(harness.schedule)
        assert harness.report.rejected == 0

    def test_reconciles_exactly(self):
        harness, __ = _quick_run(4)
        tally = harness.reconcile()
        assert sum(tally.values()) == harness.report.requests

    def test_reconcile_detects_tampering(self):
        harness, service = _quick_run(5)
        service.metrics.incr("status::ok")
        with pytest.raises(AssertionError):
            harness.reconcile()

    def test_reconcile_detects_extra_serving(self):
        from repro.serving.service import ServeRequest

        harness, service = _quick_run(6)
        service.serve(ServeRequest(user_id=0))
        with pytest.raises(AssertionError):
            harness.reconcile()

    def test_reconcile_requires_run(self):
        harness, __, ___ = build_load_world("movie", seed=0)
        with pytest.raises(ConfigError):
            harness.reconcile()

    def test_bench_floor(self):
        harness, __ = _quick_run(8)
        check_bench_floor(harness.report, 1.0)
        with pytest.raises(ConfigError):
            check_bench_floor(harness.report, 1e9)


# --------------------------------------------------------------------- #
# admission queue exactness (regression)
# --------------------------------------------------------------------- #
def _try_admit(queue: AdmissionQueue) -> bool:
    try:
        queue.admit()
        return True
    except Overloaded:
        return False


def _outcome(queue: AdmissionQueue) -> tuple[str, str]:
    """``("wait", float.hex())`` for an admit, ``("shed", message)`` for a shed."""
    try:
        return "wait", queue.admit().hex()
    except Overloaded as exc:
        return "shed", str(exc)


class _ExactReference:
    """Fraction-arithmetic oracle for the fluid admission queue."""

    def __init__(self, capacity, drain_rate, clock):
        self.capacity = capacity
        self.drain_rate = drain_rate
        self.rate = Fraction(float(drain_rate))
        self.clock = clock
        self.backlog = Fraction(0)
        self.last = Fraction(float(clock()))

    def _drain(self) -> None:
        now = Fraction(float(self.clock()))
        if now > self.last:
            drained = (now - self.last) * self.rate
            self.backlog = max(Fraction(0), self.backlog - drained)
            self.last = now

    @property
    def depth(self) -> float:
        self._drain()
        return float(self.backlog)

    def outcome(self) -> tuple[str, str]:
        """What :func:`_outcome` must read for the same arrival."""
        self._drain()
        if self.backlog >= self.capacity:
            return "shed", (
                f"admission queue full ({float(self.backlog):.1f}/"
                f"{self.capacity} pending at drain rate "
                f"{self.drain_rate:g}/s); request shed"
            )
        wait = float(self.backlog / self.rate)
        self.backlog += 1
        return "wait", wait.hex()

    def admit(self) -> bool:
        return self.outcome()[0] == "wait"


#: Drain rates with and without an exact binary expansion.
ORACLE_RATES = (0.1, 3.0, 4000.0, 1e-3, 30.0, 1 / 3)


@st.composite
def arrival_plans(draw):
    """A start time, then arrivals after gaps: zero (same instant), below
    one ULP of the current time, short, or long; some steps read depth."""
    start = draw(st.one_of(
        st.just(0.0),
        st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False),
    ))
    steps = draw(st.lists(
        st.tuples(
            st.sampled_from(("same", "sub_ulp", "short", "long")),
            st.floats(0.0, 1.0, allow_nan=False),
            st.booleans(),
        ),
        min_size=1, max_size=120,
    ))
    return start, steps


class TestAdmissionExactness:
    def test_same_timestamp_burst_admits_exact_headroom(self):
        # Partially drain to a fractional backlog, then burst at one
        # timestamp: admits must equal the exact remaining headroom.
        clock = ManualClock()
        queue = AdmissionQueue(capacity=6, drain_rate=3.0, clock=clock)
        for __ in range(6):
            assert _try_admit(queue)
        clock.advance(0.4)
        decisions = [_try_admit(queue) for __ in range(10)]
        backlog = Fraction(6) - Fraction(0.4) * Fraction(3.0)
        expected = 0
        while backlog < 6:
            backlog += 1
            expected += 1
        assert decisions == [True] * expected + [False] * (10 - expected)

    @pytest.mark.parametrize("seed", [17, 33, 0, 5])
    def test_matches_exact_reference_under_subtick_bursts(self, seed):
        # Seeds 17 and 33 made the previous float-accumulator
        # implementation diverge from exact fluid arithmetic (ULP drift
        # across repeated tiny drains caused spurious sheds).
        rng = np.random.default_rng(seed)
        clock_q, clock_r = ManualClock(), ManualClock()
        queue = AdmissionQueue(capacity=4, drain_rate=30.0, clock=clock_q)
        ref = _ExactReference(4, 30.0, clock_r)
        gaps = [1 / 30, 0.01, 0.0333333, 1 / 300, 0.1 / 3]
        for step in range(3000):
            r = rng.random()
            if r < 0.55:
                gap = 0.0  # same-timestamp sub-tick burst
            elif r < 0.9:
                gap = float(rng.choice(gaps))
            else:
                gap = float(rng.exponential(0.02))
            clock_q.advance(gap)
            clock_r.advance(gap)
            assert _outcome(queue) == ref.outcome(), (
                f"seed {seed} diverged at step {step}"
            )

    @settings(max_examples=300, deadline=None)
    @given(
        plan=arrival_plans(),
        rate=st.sampled_from(ORACLE_RATES),
        capacity=st.integers(1, 6),
    )
    def test_every_float_and_message_is_the_fraction_oracles(self, plan, rate, capacity):
        """Each wait, depth and shed message equals the Fraction oracle's,
        bit for bit, from clock 0 to ~1e9 s and at gaps below one ULP."""
        start, steps = plan
        clock = ManualClock(start)
        queue = AdmissionQueue(capacity=capacity, drain_rate=rate, clock=clock)
        ref = _ExactReference(capacity, rate, clock)
        # Long gaps drain about a capacity's worth, short ones a fraction.
        scale = {"same": 0.0, "short": 0.2 * capacity / rate, "long": 2.0 * capacity / rate}
        for step, (kind, u, read_depth) in enumerate(steps):
            gap = u * math.ulp(clock()) if kind == "sub_ulp" else u * scale[kind]
            clock.advance(gap)
            if read_depth:
                assert queue.depth.hex() == ref.depth.hex(), f"depth at step {step}"
            assert _outcome(queue) == ref.outcome(), f"arrival at step {step}"
        assert queue.snapshot()["depth"] == round(ref.depth, 6)

    @pytest.mark.parametrize("capacity", [2.5, 3, np.int64(3), float("inf")])
    def test_capacity_types_match_the_oracle(self, capacity):
        clock = ManualClock(7.0)
        queue = AdmissionQueue(capacity=capacity, drain_rate=0.1, clock=clock)
        ref = _ExactReference(capacity, 0.1, clock)
        for __ in range(6):
            assert _outcome(queue) == ref.outcome()
            clock.advance(1.5)

    def test_float_facing_api_unchanged(self):
        clock = ManualClock()
        queue = AdmissionQueue(capacity=4, drain_rate=10.0, clock=clock)
        wait = queue.admit()
        assert isinstance(wait, float) and wait == 0.0
        assert isinstance(queue.depth, float)
        snap = queue.snapshot()
        assert isinstance(snap["depth"], float)


# --------------------------------------------------------------------- #
# reservoir histograms
# --------------------------------------------------------------------- #
class TestReservoirHistogram:
    def test_default_snapshot_unchanged(self):
        hist = Histogram((1.0, 2.0))
        hist.observe(0.5)
        assert "sampling" not in hist.snapshot()

    def test_reservoir_flag_in_snapshot(self):
        hist = Histogram((1.0, 2.0), reservoir=True)
        hist.observe(0.5)
        assert hist.snapshot()["sampling"] == "reservoir"

    def test_reservoir_caps_samples_and_stays_unbiased(self):
        hist = Histogram((1.0,), max_samples=64, reservoir=True)
        rng = np.random.default_rng(0)
        for value in rng.random(20_000):
            hist.observe(float(value))
        assert hist.count == 20_000
        assert len(hist._samples) == 64
        # Uniform[0, 1): the reservoir median estimates 0.5.
        assert hist.quantile(50.0) == pytest.approx(0.5, abs=0.12)

    def test_reservoir_deterministic(self):
        def fill(seed):
            h = Histogram((1.0,), max_samples=32, reservoir=True,
                          reservoir_seed=seed)
            rng = np.random.default_rng(1)
            for value in rng.random(5000):
                h.observe(float(value))
            return h

        assert fill(7)._samples == fill(7)._samples
        assert fill(7)._samples != fill(8)._samples

    def test_reservoir_beats_bucket_fallback(self):
        # Past max_samples the default mode degrades to coarse bucket
        # estimates (here: one huge bucket); reservoir mode keeps an
        # unbiased sample and stays near the true median.
        plain = Histogram((1e9,), max_samples=100)
        res = Histogram((1e9,), max_samples=100, reservoir=True)
        for value in range(10_000):
            plain.observe(float(value))
            res.observe(float(value))
        assert abs(plain.quantile(50.0) - 4999.5) > 2000
        assert res.quantile(50.0) == pytest.approx(5000, rel=0.35)

    def test_registry_merge_preserves_reservoir(self):
        a, b = MetricRegistry(), MetricRegistry()
        for registry in (a, b):
            hist = registry.histogram(
                "lat", bounds=(1.0,), max_samples=16, reservoir=True
            )
            for value in range(100):
                hist.observe(float(value))
        a.merge(b)
        merged = a.histogram("lat", bounds=(1.0,))
        assert merged.reservoir
        assert merged.count == 200
        assert len(merged._samples) == 16


# --------------------------------------------------------------------- #
# persona-driven online stream bridge
# --------------------------------------------------------------------- #
class TestPersonaStream:
    def _stream(self, seed=0):
        from repro.online.stream import StreamConfig

        config = StreamConfig(
            num_users=40, num_items=60, warm_users=24, warm_items=40
        )
        return PersonaInteractionStream(config, clock=ManualClock(), seed=seed)

    def test_batches_deterministic(self):
        def run(seed):
            stream = self._stream(seed)
            return [
                (batch.trace(), stream.clock())
                for batch in (stream.next_batch() for __ in range(50))
            ]

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_clock_follows_schedule(self):
        stream = self._stream(0)
        before = stream.clock()
        for __ in range(20):
            stream.next_batch()
        assert stream.clock() > before

    def test_newcomers_registered_sequentially(self):
        stream = self._stream(1)
        for __ in range(300):
            stream.next_batch()
        newcomers = [user for __, user in stream.introduced_users]
        assert newcomers == list(
            range(stream.config.warm_users, stream.seen_users)
        )

    def test_population_must_fit_stream(self):
        from repro.online.stream import StreamConfig

        population = PersonaPopulation.from_scenario(
            "movie", num_users=500, seed=0
        )
        with pytest.raises(ConfigError):
            PersonaInteractionStream(
                StreamConfig(
                    num_users=40, num_items=60, warm_users=24, warm_items=40
                ),
                clock=ManualClock(), seed=0, population=population,
            )
