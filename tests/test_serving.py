"""Unit tests for the fault-tolerant serving layer (`repro.serving`)."""

import numpy as np
import pytest

from repro.core.exceptions import (
    ConfigError,
    DeadlineExceeded,
    ModelUnavailableError,
    Overloaded,
    PromotionError,
    RequestError,
)
from repro.core.clock import ManualClock
from repro.core.recommender import Recommender
from repro.data import MOVIE_SCHEMA, generate_dataset
from repro.models.baselines import MostPopular
from repro.runtime.guards import validate_scores
from repro.serving import (
    AdmissionQueue,
    CircuitBreaker,
    Deadline,
    ModelRegistry,
    RecommenderService,
    ServeRequest,
    StaticTopK,
    validate_request,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(MOVIE_SCHEMA, num_users=20, num_items=15, seed=0)


class Linear(Recommender):
    """Deterministic personalized scores: score(u, i) = (i * (u + 3)) % 11."""

    def fit(self, dataset):
        self._n = dataset.num_items
        self._mark_fitted(dataset)
        return self

    def score_all(self, user_id):
        return ((np.arange(self._n) * (user_id + 3)) % 11).astype(np.float64)


class Breakable(Recommender):
    """Healthy until ``broken`` is flipped (passes canary, fails live)."""

    def __init__(self, mode="raise"):
        super().__init__()
        self.broken = False
        self.mode = mode

    def fit(self, dataset):
        self._n = dataset.num_items
        self._mark_fitted(dataset)
        return self

    def score_all(self, user_id):
        if self.broken:
            if self.mode == "raise":
                raise RuntimeError("model exploded")
            return np.full(self._n, np.nan)
        return np.arange(self._n, dtype=np.float64)


def make_service(dataset, clock=None, **kwargs):
    clock = clock or ManualClock()
    kwargs.setdefault("primary", ("linear", Linear().fit(dataset)))
    kwargs.setdefault("fallbacks", [("popular", MostPopular().fit(dataset))])
    return RecommenderService(dataset, clock=clock, **kwargs), clock


# ---------------------------------------------------------------------- #
# score validation guard
# ---------------------------------------------------------------------- #
class TestValidateScores:
    def test_ok(self):
        report = validate_scores(np.ones(5), 5)
        assert report.ok and report.describe().startswith("ok")

    def test_wrong_shape(self):
        assert not validate_scores(np.ones(4), 5).ok
        assert not validate_scores(np.ones((5, 1)), 5).ok

    def test_nonfinite_counts(self):
        report = validate_scores(np.array([1.0, np.nan, np.inf, -np.inf]), 4)
        assert not report.ok
        assert report.num_nan == 1
        assert report.num_inf == 2

    def test_non_numeric(self):
        assert not validate_scores(np.array(["a", "b"]), 2).ok


# ---------------------------------------------------------------------- #
# clock and deadline
# ---------------------------------------------------------------------- #
class TestManualClock:
    def test_advance(self):
        clock = ManualClock()
        assert clock() == 0.0
        clock.advance(1.5)
        clock.sleep(0.5)  # alias
        assert clock() == pytest.approx(2.0)

    def test_no_time_travel(self):
        with pytest.raises(ValueError):
            ManualClock().advance(-1.0)


class TestDeadline:
    def test_expiry_and_check(self):
        clock = ManualClock()
        deadline = Deadline(1.0, clock=clock)
        deadline.check()
        assert deadline.elapsed == 0.0 and not deadline.expired
        clock.advance(1.5)
        assert deadline.expired
        with pytest.raises(DeadlineExceeded, match="scoring"):
            deadline.check("scoring")

    def test_unbounded(self):
        clock = ManualClock()
        deadline = Deadline(None, clock=clock)
        clock.advance(1e9)
        assert not deadline.expired
        deadline.check()

    def test_config(self):
        with pytest.raises(ConfigError):
            Deadline(0.0)
        with pytest.raises(ConfigError):
            Deadline(float("nan"))  # would never expire: elapsed > nan is false


# ---------------------------------------------------------------------- #
# circuit breaker
# ---------------------------------------------------------------------- #
class TestCircuitBreaker:
    def test_opens_on_consecutive_failures(self):
        clock = ManualClock()
        b = CircuitBreaker(failure_threshold=3, recovery_time=10.0, clock=clock)
        for __ in range(2):
            assert b.allow()
            b.record_failure()
        assert b.state == "closed"
        b.record_failure()
        assert b.state == "open"
        assert not b.allow()
        assert b.rejections == 1
        assert [t.to_state for t in b.transitions] == ["open"]

    def test_opens_on_failure_rate(self):
        clock = ManualClock()
        b = CircuitBreaker(
            failure_threshold=100, failure_rate_threshold=0.5, window=4,
            clock=clock,
        )
        outcomes = [False, True, False, True]  # 50% failures once window full
        for fail in outcomes:
            b.record_failure() if fail else b.record_success()
        assert b.state == "open"
        assert "failure rate" in b.transitions[0].reason

    def test_half_open_probe_lifecycle(self):
        clock = ManualClock()
        b = CircuitBreaker(
            failure_threshold=1, recovery_time=5.0, half_open_probes=2,
            clock=clock,
        )
        b.record_failure()
        assert b.state == "open"
        clock.advance(5.0)
        assert b.state == "half_open"
        assert b.allow() and b.allow()
        assert not b.allow()  # probe budget exhausted
        b.record_success()
        assert b.state == "half_open"
        b.record_success()
        assert b.state == "closed"
        states = [t.to_state for t in b.transitions]
        assert states == ["open", "half_open", "closed"]

    def test_half_open_failure_reopens(self):
        clock = ManualClock()
        b = CircuitBreaker(failure_threshold=1, recovery_time=5.0, clock=clock)
        b.record_failure()
        clock.advance(5.0)
        assert b.state == "half_open"
        b.record_failure()
        assert b.state == "open"
        clock.advance(4.9)
        assert b.state == "open"  # cooldown restarted at reopen

    def test_config_validation(self):
        for kwargs in (
            {"failure_threshold": 0},
            {"failure_rate_threshold": 0.0},
            {"window": 0},
            {"recovery_time": 0.0},
            {"half_open_probes": 0},
        ):
            with pytest.raises(ConfigError):
                CircuitBreaker(**kwargs)


# ---------------------------------------------------------------------- #
# admission queue
# ---------------------------------------------------------------------- #
class TestAdmissionQueue:
    def test_sheds_at_capacity_and_drains(self):
        clock = ManualClock()
        q = AdmissionQueue(capacity=3, drain_rate=10.0, clock=clock)
        for __ in range(3):
            q.admit()
        with pytest.raises(Overloaded):
            q.admit()
        assert q.shed == 1 and q.admitted == 3
        clock.advance(0.1)  # drains one unit at 10/s
        q.admit()
        assert q.admitted == 4

    def test_wait_estimate(self):
        clock = ManualClock()
        q = AdmissionQueue(capacity=10, drain_rate=10.0, clock=clock)
        assert q.admit() == pytest.approx(0.0)
        assert q.admit() == pytest.approx(0.1)  # behind one queued unit

    def test_config(self):
        with pytest.raises(ConfigError):
            AdmissionQueue(capacity=0)
        with pytest.raises(ConfigError):
            AdmissionQueue(drain_rate=0.0)


# ---------------------------------------------------------------------- #
# static last resort
# ---------------------------------------------------------------------- #
class TestStaticTopK:
    def test_popularity_from_dataset(self, dataset):
        static = StaticTopK().fit(dataset)
        np.testing.assert_allclose(
            static.score_all(0),
            dataset.interactions.item_degrees().astype(np.float64),
        )
        # handed-out vector is a copy: mutation cannot corrupt the rung
        static.score_all(0)[:] = -1
        assert (static.score_all(0) >= 0).all()


# ---------------------------------------------------------------------- #
# registry / hot swap
# ---------------------------------------------------------------------- #
class TestModelRegistry:
    def test_promote_and_rollback(self, dataset):
        clock = ManualClock()
        reg = ModelRegistry(dataset.num_items, clock=clock)
        with pytest.raises(ModelUnavailableError):
            reg.live
        reg.promote("a", Linear().fit(dataset), canary_users=range(4))
        assert reg.live_name == "a"
        reg.promote("b", MostPopular().fit(dataset), canary_users=range(4))
        assert reg.live_name == "b"
        assert reg.rollback() == "a"
        # Two promotions plus the rollback's own audit record.
        assert [r.kind for r in reg.history] == [
            "promote", "promote", "rollback",
        ]
        assert [r.promoted for r in reg.history] == [True, True, False]
        assert reg.history[-1].rejection == "rollback:operator"

    def test_rejects_nan_candidate(self, dataset):
        reg = ModelRegistry(dataset.num_items, clock=ManualClock())
        reg.promote("good", Linear().fit(dataset), canary_users=range(4))
        bad = Breakable(mode="nan").fit(dataset)
        bad.broken = True
        with pytest.raises(PromotionError, match="canary"):
            reg.promote("bad", bad, canary_users=range(4))
        assert reg.live_name == "good"  # atomic: swap never happened
        assert not reg.history[-1].promoted

    def test_rejects_raising_candidate(self, dataset):
        reg = ModelRegistry(dataset.num_items, clock=ManualClock())
        bad = Breakable(mode="raise").fit(dataset)
        bad.broken = True
        with pytest.raises(PromotionError, match="RuntimeError"):
            reg.promote("bad", bad, canary_users=range(2))

    def test_empty_canary_refused(self, dataset):
        reg = ModelRegistry(dataset.num_items, clock=ManualClock())
        with pytest.raises(PromotionError, match="empty"):
            reg.promote("m", Linear().fit(dataset), canary_users=())


# ---------------------------------------------------------------------- #
# request validation at the service boundary
# ---------------------------------------------------------------------- #
class TestRequestValidation:
    def test_empty_catalog(self):
        with pytest.raises(RequestError, match="empty"):
            validate_request(ServeRequest(user_id=0), num_users=5, num_items=0)

    @pytest.mark.parametrize(
        "request_kwargs, match",
        [
            ({"user_id": 99}, "unknown user"),
            ({"user_id": -1}, "unknown user"),
            ({"user_id": "zero"}, "integer"),
            ({"user_id": 1.5}, "integer"),
            ({"user_id": True}, "integer"),
            ({"user_id": 0, "k": 0}, "k must be"),
            ({"user_id": 0, "k": 2.5}, "integer"),
            ({"user_id": 0, "deadline": -1.0}, "deadline"),
        ],
    )
    def test_malformed_requests(self, request_kwargs, match):
        with pytest.raises(RequestError, match=match):
            validate_request(
                ServeRequest(**request_kwargs), num_users=10, num_items=10
            )

    @pytest.mark.parametrize(
        "deadline",
        ["0.1", True, float("nan"), np.float64("nan"), [0.1], 1j],
        ids=["str", "bool", "nan", "np-nan", "list", "complex"],
    )
    def test_bad_deadline_rejected_typed(self, dataset, deadline):
        """A non-real or NaN deadline is a typed rejection, never a raise."""
        with pytest.raises(RequestError, match="deadline"):
            validate_request(
                ServeRequest(user_id=0, deadline=deadline),
                num_users=10, num_items=10,
            )
        service, __ = make_service(dataset)
        response = service.serve(ServeRequest(user_id=1, k=3, deadline=deadline))
        assert response.status == "rejected"
        assert "deadline" in response.error

    def test_nan_default_deadline_rejected(self, dataset):
        with pytest.raises(ConfigError, match="default_deadline"):
            make_service(dataset, default_deadline=float("nan"))

    def test_serve_returns_rejected_not_raise(self, dataset):
        service, __ = make_service(dataset)
        response = service.serve(ServeRequest(user_id=999))
        assert response.status == "rejected"
        assert "unknown user" in response.error
        assert service.metrics.count("status::rejected") == 1

    def test_recommend_facade_raises(self, dataset):
        service, __ = make_service(dataset)
        with pytest.raises(RequestError):
            service.recommend(user_id=999)


# ---------------------------------------------------------------------- #
# service behavior
# ---------------------------------------------------------------------- #
class TestRecommenderService:
    def test_ok_path_matches_model_ranking(self, dataset):
        service, __ = make_service(dataset)
        response = service.serve(ServeRequest(user_id=3, k=5))
        assert response.status == "ok"
        assert response.model == "linear"
        assert not response.degraded and response.fallback_used is None
        # reproduce the expected ranking by hand
        scores = Linear().fit(dataset).score_all(3)
        scores[dataset.interactions.items_of(3)] = -np.inf
        top = np.argpartition(-scores, 4)[:5]
        expected = top[np.argsort(-scores[top], kind="stable")]
        expected = expected[np.isfinite(scores[expected])]  # no seen-item padding
        assert list(response.items) == [int(i) for i in expected]
        assert all(np.isfinite(s) for s in response.scores)

    def test_k_clamped_to_catalog(self, dataset):
        service, __ = make_service(dataset)
        response = service.serve(
            ServeRequest(user_id=0, k=10_000, exclude_seen=False)
        )
        assert response.ok
        assert len(response.items) == dataset.num_items

    def test_broken_primary_degrades_to_fallback(self, dataset):
        primary = Breakable(mode="raise").fit(dataset)
        service, __ = make_service(dataset, primary=("breakable", primary))
        primary.broken = True
        response = service.serve(ServeRequest(user_id=1, k=3))
        assert response.status == "degraded"
        assert response.fallback_used == "popular"
        assert service.metrics.count("fallback_activations") == 1
        assert service.metrics.count("rung_errors::breakable") == 1

    def test_nan_primary_degrades(self, dataset):
        primary = Breakable(mode="nan").fit(dataset)
        service, __ = make_service(dataset, primary=("breakable", primary))
        primary.broken = True
        response = service.serve(ServeRequest(user_id=1, k=3))
        assert response.status == "degraded"
        assert service.metrics.count("invalid_scores::breakable") == 1

    def test_all_models_broken_static_answers(self, dataset):
        primary = Breakable(mode="raise").fit(dataset)
        fallback = Breakable(mode="nan").fit(dataset)
        service, __ = make_service(
            dataset,
            primary=("p", primary),
            fallbacks=[("f", fallback)],
        )
        primary.broken = fallback.broken = True
        response = service.serve(ServeRequest(user_id=0, k=4))
        assert response.status == "degraded"
        assert response.model == "static"
        seen = set(dataset.interactions.items_of(0).tolist())
        assert 1 <= len(response.items) <= 4
        assert not seen & set(response.items)

    def test_shedding(self, dataset):
        clock = ManualClock()
        service, __ = make_service(
            dataset,
            clock=clock,
            admission=AdmissionQueue(capacity=2, drain_rate=10.0, clock=clock),
        )
        statuses = [
            service.serve(ServeRequest(user_id=0)).status for __ in range(4)
        ]
        assert statuses == ["ok", "ok", "shed", "shed"]
        clock.advance(1.0)
        assert service.serve(ServeRequest(user_id=0)).status == "ok"
        with pytest.raises(Overloaded):
            for __ in range(5):
                service.recommend(user_id=0)

    def test_hot_swap_and_rollback(self, dataset):
        service, __ = make_service(dataset)
        assert service.serve(ServeRequest(user_id=0)).model == "linear"
        service.promote("popular-v2", MostPopular().fit(dataset))
        assert service.serve(ServeRequest(user_id=0)).model == "popular-v2"
        assert service.metrics.count("promotions") == 2  # init + swap

        bad = Breakable(mode="nan").fit(dataset)
        bad.broken = True
        with pytest.raises(PromotionError):
            service.promote("bad", bad)
        assert service.metrics.count("promotion_failures") == 1
        assert service.serve(ServeRequest(user_id=0)).model == "popular-v2"

        assert service.rollback() == "linear"
        assert service.serve(ServeRequest(user_id=0)).model == "linear"

    def test_health_and_ready(self, dataset):
        service, __ = make_service(dataset)
        assert service.ready()
        health = service.health()
        assert health["ready"] is True
        assert health["live_model"] == "linear"
        assert health["live_breaker_state"] == "closed"
        assert health["rungs"] == ["linear", "popular", "static"]
        assert "latency_p50" in health["metrics"]
        import json

        json.dumps(health)  # probe payload must be JSON-safe

    def test_deadline_exceeded_on_primary_degrades(self, dataset):
        clock = ManualClock()

        class Slow(Linear):
            def score_all(self, user_id):
                clock.advance(0.2)
                return super().score_all(user_id)

        service, __ = make_service(
            dataset,
            clock=clock,
            primary=("slow", Slow().fit(dataset)),
            default_deadline=0.05,
        )
        response = service.serve(ServeRequest(user_id=0))
        assert response.status == "degraded"
        assert service.metrics.count("deadline_exceeded::slow") == 1

    def test_reserved_static_name(self, dataset):
        with pytest.raises(ConfigError):
            make_service(
                dataset, fallbacks=[("static", MostPopular().fit(dataset))]
            )

    def test_initial_promotion_probes_canary(self, dataset):
        bad = Breakable(mode="nan").fit(dataset)
        bad.broken = True
        with pytest.raises(PromotionError):
            make_service(dataset, primary=("bad", bad))
