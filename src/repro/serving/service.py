"""`RecommenderService` — the fault-tolerant in-process serving boundary.

Wraps fitted :class:`~repro.core.recommender.Recommender` models behind a
request/response API that *always* answers with a typed outcome:

``ok``
    served by the live personalized model;
``degraded``
    served by a fallback rung (kNN/popularity model or the static top-k
    last resort) because the live model was broken, slow, or breaker-open;
``shed``
    explicitly rejected by the bounded admission queue (:class:`Overloaded`);
``rejected``
    the request itself failed validation (unknown user id, malformed k).

No exception escapes :meth:`RecommenderService.serve`; the lower-level
:meth:`RecommenderService.recommend` raises the structured
:class:`~repro.core.exceptions.ServingError` subclasses instead for
callers that prefer exceptions.  All time comes from an injectable clock
and faults from a seeded :class:`~repro.runtime.faults.FaultInjector`, so
every behavior here is deterministic under seed (see
``tests/test_serving_chaos.py`` and ``docs/serving.md``).
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.dataset import Dataset
from repro.core.exceptions import (
    ConfigError,
    DeadlineExceeded,
    Overloaded,
    RequestError,
    ServingError,
)
from repro.core.recommender import Recommender
from repro.runtime.faults import FaultInjector
from repro.runtime.guards import validate_scores
from repro.runtime.retry import RetryPolicy
from repro.telemetry import NULL, NullTelemetry, Telemetry

from .admission import AdmissionQueue
from .breaker import CircuitBreaker
from .deadline import Deadline
from .fallback import StaticTopK
from .metrics import ServiceMetrics
from .registry import ModelRegistry, PromotionRecord

__all__ = ["ServeRequest", "ServeResponse", "RecommenderService", "validate_request"]

#: Rung name of the non-personalized last resort.
STATIC_RUNG = "static"


@dataclass(frozen=True)
class ServeRequest:
    """One top-k recommendation request."""

    user_id: int
    k: int = 10
    deadline: float | None = None  # seconds; None -> service default
    exclude_seen: bool = True


@dataclass(frozen=True)
class ServeResponse:
    """Typed outcome for one request.  ``status`` is one of
    ``"ok"`` / ``"degraded"`` / ``"shed"`` / ``"rejected"``."""

    request_id: int
    user_id: int
    status: str
    items: tuple[int, ...] = ()
    scores: tuple[float, ...] = ()
    model: str = ""
    degraded: bool = False
    fallback_used: str | None = None
    error: str = ""
    latency: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "degraded")

    def trace(self) -> str:
        """Canonical one-line form; chaos tests compare these bitwise."""
        items = ",".join(str(i) for i in self.items)
        return (
            f"{self.request_id}|u={self.user_id}|{self.status}|{self.model}|"
            f"fb={self.fallback_used or '-'}|[{items}]|lat={self.latency:.6f}|"
            f"err={self.error}"
        )


def validate_request(request: ServeRequest, num_users: int, num_items: int) -> None:
    """Raise :class:`RequestError` unless ``request`` is servable.

    Checks the catalog is non-empty, the user id is a known integer,
    ``k`` is a positive integer, and a deadline is a positive real number
    (not a bool, string or NaN) — the failure modes that would otherwise
    surface as IndexErrors, TypeErrors or a never-expiring budget deep
    inside the scoring chain.
    """
    if num_items < 1:
        raise RequestError("catalog is empty; nothing to recommend")
    if isinstance(request.user_id, bool) or not isinstance(
        request.user_id, (int, np.integer)
    ):
        raise RequestError(
            f"user_id must be an integer, got {type(request.user_id).__name__}"
        )
    if not 0 <= int(request.user_id) < num_users:
        raise RequestError(
            f"unknown user id {int(request.user_id)} (catalog has {num_users} users)"
        )
    if isinstance(request.k, bool) or not isinstance(request.k, (int, np.integer)):
        raise RequestError(f"k must be an integer, got {type(request.k).__name__}")
    if int(request.k) < 1:
        raise RequestError(f"k must be >= 1, got {int(request.k)}")
    deadline = request.deadline
    if deadline is not None and (
        isinstance(deadline, bool)
        or not isinstance(deadline, numbers.Real)
        or not deadline > 0
    ):
        raise RequestError(
            f"deadline must be a positive number of seconds, got {deadline!r}"
        )


class _RungFailed(Exception):
    """Internal: one chain rung could not produce a valid ranking."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class RecommenderService:
    """Circuit-broken, deadline-aware, load-shedding serving facade.

    Parameters
    ----------
    dataset:
        The catalog being served (bounds for validation, seen-item
        exclusion, and the static last-resort popularity vector).
    primary:
        ``(name, fitted_model)`` for the live personalized model.  It goes
        through the same canary probe as any later :meth:`promote`.
    fallbacks:
        Ordered ``(name, fitted_model)`` degradation rungs tried after the
        live model (e.g. an ItemKNN, then MostPopular).  A ``"static"``
        top-k rung is always appended as the infallible last resort.
    default_deadline:
        Per-request budget in seconds when the request does not carry its
        own (``None`` disables deadline enforcement by default).
    breaker_config:
        Keyword arguments for each model rung's :class:`CircuitBreaker`.
    admission:
        Bounded :class:`AdmissionQueue`; ``None`` admits everything.
    faults:
        Seeded :class:`~repro.runtime.faults.FaultInjector` applied to the
        *live* rung only (``step`` = global request index), so chaos tests
        exercise exactly the failure path real model regressions take.
    retry:
        Optional :class:`~repro.runtime.retry.RetryPolicy` for live-rung
        scoring; give it a ``total_budget`` so retries respect the SLO.
    canary_size:
        Number of users probed on promotion: the lowest user ids.
    clock:
        Injectable monotonic time source shared by every component.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`.  When given, every
        request records a ``serve/request`` span (outcome, rung, breaker
        state) with per-rung child spans, and :class:`ServiceMetrics` sits
        on the telemetry's shared registry so serving counters join the
        same export as training metrics.  ``None`` keeps telemetry fully
        off (the no-op guard is one attribute check per request).
    """

    def __init__(
        self,
        dataset: Dataset,
        primary: tuple[str, Recommender],
        fallbacks: Sequence[tuple[str, Recommender]] = (),
        *,
        default_k: int = 10,
        default_deadline: float | None = None,
        breaker_config: dict | None = None,
        admission: AdmissionQueue | None = None,
        faults: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        canary_size: int = 8,
        clock: Callable[[], float] = time.monotonic,
        telemetry: Telemetry | NullTelemetry | None = None,
    ) -> None:
        if default_k < 1:
            raise ConfigError("default_k must be >= 1")
        if canary_size < 1:
            raise ConfigError("canary_size must be >= 1")
        if default_deadline is not None and not default_deadline > 0:
            raise ConfigError("default_deadline must be positive")
        self.dataset = dataset
        self.clock = clock
        self.default_k = default_k
        self.default_deadline = default_deadline
        self.admission = admission
        self.faults = faults
        self.retry = retry
        self.telemetry = telemetry if telemetry is not None else NULL
        self.metrics = ServiceMetrics(
            registry=self.telemetry.metrics if self.telemetry.enabled else None
        )
        self._by_status = self.metrics.counters("status::")
        self._served_by = self.metrics.counters("served_by::")
        self._breaker_config = dict(breaker_config or {})
        self._canary = tuple(range(min(canary_size, dataset.num_users)))
        self._request_counter = 0

        self.registry = ModelRegistry(
            dataset.num_items, clock=clock, telemetry=self.telemetry
        )
        self._breakers: dict[str, CircuitBreaker] = {}

        self._fallbacks: list[tuple[str, Recommender]] = []
        for name, model in fallbacks:
            if name == STATIC_RUNG:
                raise ConfigError(f"rung name {STATIC_RUNG!r} is reserved")
            self._fallbacks.append((name, model))
            self._breakers[name] = self._make_breaker()

        self._static = StaticTopK().fit(dataset)

        name, model = primary
        self.promote(name, model)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def _make_breaker(self) -> CircuitBreaker:
        return CircuitBreaker(clock=self.clock, **self._breaker_config)

    def promote(self, name: str, model: Recommender) -> PromotionRecord:
        """Validate-then-promote hot swap of the live model.

        The candidate must pass the canary smoke probe (finite scores of
        the right shape for every canary user); failure raises
        :class:`~repro.core.exceptions.PromotionError` and the previous
        live model keeps serving — rollback is atomic because the swap
        never happened.  A successful swap installs a fresh breaker for
        the new model.
        """
        try:
            record = self.registry.promote(name, model, self._canary)
        except ServingError:
            self.metrics.incr("promotion_failures")
            raise
        self._breakers[name] = self._make_breaker()
        self.metrics.incr("promotions")
        return record

    def rollback(self, cause: str = "operator") -> str:
        """Demote the live model to its predecessor (fresh breaker).

        ``cause`` lands on the durable rollback record and the
        ``serve/rollback`` span (see :meth:`ModelRegistry.rollback`).
        """
        name = self.registry.rollback(cause)
        self._breakers[name] = self._make_breaker()
        self.metrics.incr("rollbacks")
        return name

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def serve(self, request: ServeRequest) -> ServeResponse:
        """Answer ``request`` with a typed outcome; never raises."""
        request_id = self._request_counter
        self._request_counter += 1
        start = self.clock()
        self.metrics.incr("requests")

        try:
            uid = int(request.user_id)
        except (TypeError, ValueError):
            uid = -1

        tel = self.telemetry
        span = (
            tel.begin("serve/request", request_id=request_id, user=uid)
            if tel.enabled
            else None
        )

        def finish(**kwargs) -> ServeResponse:
            response = ServeResponse(
                request_id=request_id,
                user_id=uid,
                latency=self.clock() - start,
                **kwargs,
            )
            self._by_status[response.status].inc()
            self.metrics.observe_latency(response.latency)
            if span is not None:
                live = self.registry.live_name if self.registry.has_live else None
                span.set(
                    outcome=response.status,
                    rung=response.model or None,
                    breaker=self._breakers[live].state if live else None,
                )
                if response.error:
                    span.set(error=response.error)
                tel.end(span)
            return response

        try:
            validate_request(request, self.dataset.num_users, self.dataset.num_items)
        except RequestError as exc:
            return finish(status="rejected", error=f"{type(exc).__name__}: {exc}")

        if self.admission is not None:
            try:
                wait = self.admission.admit()
                self.metrics.incr("admitted")
                self.metrics.incr("queue_wait_us", int(wait * 1e6))
            except Overloaded as exc:
                return finish(status="shed", error=f"{type(exc).__name__}: {exc}")

        try:
            rung, items, scores = self._score_through_chain(request_id, request)
        except Exception as exc:  # noqa: BLE001 - contract: nothing escapes
            # Unreachable while the static rung holds its no-fail contract;
            # kept so a bug downgrades to a typed outcome instead of a 500.
            self.metrics.incr("internal_errors")
            return finish(status="rejected", error=f"{type(exc).__name__}: {exc}")

        degraded = rung != self.registry.live_name
        if degraded:
            self.metrics.incr("fallback_activations")
        self._served_by[rung].inc()
        return finish(
            status="degraded" if degraded else "ok",
            items=tuple(items.tolist()),
            scores=tuple(scores.tolist()),
            model=rung,
            degraded=degraded,
            fallback_used=rung if degraded else None,
        )

    def recommend(self, user_id: int, k: int | None = None) -> ServeResponse:
        """Exception-flavored façade: shed/rejected outcomes raise instead."""
        request = ServeRequest(user_id=user_id, k=k if k is not None else self.default_k)
        validate_request(request, self.dataset.num_users, self.dataset.num_items)
        response = self.serve(request)
        if response.status == "shed":
            raise Overloaded(response.error)
        if response.status == "rejected":
            raise RequestError(response.error)
        return response

    # ------------------------------------------------------------------ #
    def _chain(self) -> list[tuple[str, Recommender, CircuitBreaker | None]]:
        rungs: list[tuple[str, Recommender, CircuitBreaker | None]] = []
        if self.registry.has_live:
            name = self.registry.live_name
            rungs.append((name, self.registry.live, self._breakers[name]))
        for name, model in self._fallbacks:
            rungs.append((name, model, self._breakers[name]))
        rungs.append((STATIC_RUNG, self._static, None))
        return rungs

    def _score_through_chain(
        self, request_id: int, request: ServeRequest
    ) -> tuple[str, np.ndarray, np.ndarray]:
        """Walk the degradation ladder; returns ``(rung, items, scores)``.

        Cooperative deadline checkpoints run before and after each model
        rung (the ``run_panel`` ``time_budget`` pattern): a rung whose
        scoring overran the budget is recorded as that rung's failure and
        the walk continues — the static last resort is exempt, so an
        already-expired deadline still yields a degraded answer rather
        than no answer.
        """
        user_id = int(request.user_id)
        k = int(request.k)
        budget = request.deadline if request.deadline is not None else self.default_deadline
        # An unbounded deadline never expires, so it has nothing to check.
        deadline = Deadline(budget, clock=self.clock) if budget is not None else None
        live_name = self.registry.live_name
        tel = self.telemetry

        for name, model, breaker in self._chain():
            if breaker is not None and not breaker.allow():
                self.metrics.incr(f"breaker_rejected::{name}")
                continue
            # A candidate rung (e.g. TwoStageRecommender) answers with an
            # (ids, scores) subset instead of a full score vector; it is
            # validated and ranked against exactly that subset.
            candidate_rung = bool(getattr(model, "supports_candidates", False))
            checked = deadline is not None and name != STATIC_RUNG
            rung_span = tel.begin("serve/rung", rung=name) if tel.enabled else None
            try:
                if checked:
                    deadline.check(f"before rung {name!r}")
                ids, scores = self._call_rung(request_id, model, user_id,
                                              primary=name == live_name, k=k,
                                              candidates=candidate_rung)
                report = validate_scores(
                    scores, self.dataset.num_items, expected_indices=ids
                )
                if not report.ok:
                    self.metrics.incr(f"invalid_scores::{name}")
                    raise _RungFailed(f"invalid scores: {report.describe()}")
                if checked:
                    deadline.check(f"after rung {name!r}")
            except DeadlineExceeded as exc:
                if breaker is not None:
                    breaker.record_failure("deadline")
                self.metrics.incr(f"deadline_exceeded::{name}")
                self.metrics.incr("deadline_exceeded")
                if rung_span is not None:
                    tel.end(rung_span, outcome="deadline")
                continue
            except Exception as exc:  # noqa: BLE001 - rung isolation is the point
                if breaker is not None:
                    breaker.record_failure(type(exc).__name__)
                self.metrics.incr(f"rung_errors::{name}")
                if rung_span is not None:
                    tel.end(rung_span, outcome="error", error=type(exc).__name__)
                continue
            if breaker is not None:
                breaker.record_success()
            if rung_span is not None:
                if ids is not None:
                    rung_span.set(candidates=int(np.asarray(ids).size))
                tel.end(rung_span, outcome="ok")
            items, top_scores = self._rank(
                scores, user_id, k, request.exclude_seen, ids=ids,
                increasing=report.increasing,
            )
            return name, items, top_scores
        # The static rung cannot fail, so this line requires a programming
        # error in the chain itself.
        raise ServingError("degradation ladder exhausted without a response")

    def _call_rung(
        self, request_id: int, model: Recommender, user_id: int,
        primary: bool, k: int = 1, candidates: bool = False,
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """One rung's scoring call, with faults/retries on the live rung.

        Returns ``(ids, scores)``: the rung's candidate subset when
        ``candidates`` is set (the rung exposes ``score_candidates``), else
        ``(None, full score vector)``.  Faults and retries apply
        identically on both shapes, so a candidate rung degrades through
        exactly the same machinery.
        """
        faults = self.faults if primary else None

        def attempt():
            if faults is not None:
                faults.on_request(request_id)
            if candidates:
                ids, scores = model.score_candidates(user_id, k)
            else:
                ids, scores = None, model.score_all(user_id)
            if faults is not None:
                scores = faults.corrupt_scores(request_id, scores)
            return ids, scores

        if primary and self.retry is not None:
            return self.retry.call(attempt)
        return attempt()

    def _rank(
        self, scores: np.ndarray, user_id: int, k: int, exclude_seen: bool,
        ids: np.ndarray | None = None, increasing: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k over a full score vector, or over an ``ids``-aligned subset.

        ``increasing`` says the score guard found ``ids`` strictly
        increasing (:attr:`ScoreReport.increasing
        <repro.runtime.guards.ScoreReport.increasing>`).
        """
        scores = np.array(scores, dtype=np.float64, copy=True)
        if ids is not None:
            ids = np.asarray(ids, dtype=np.int64)
        if exclude_seen:
            seen = self.dataset.interactions.items_of(user_id)
            if ids is None:
                scores[seen] = -np.inf
            elif increasing:
                # Strictly increasing ids (what IvfIndex.search returns):
                # binary-search each seen item instead of passing np.isin
                # over every candidate.  The guard has proven ``ids``
                # non-empty.
                slot = np.minimum(np.searchsorted(ids, seen), ids.size - 1)
                scores[slot[ids[slot] == seen]] = -np.inf
            else:
                scores[np.isin(ids, seen)] = -np.inf
        k = min(k, scores.size)
        top = np.argpartition(-scores, k - 1)[:k]
        top = top[np.argsort(-scores[top], kind="stable")]
        # When k exceeds the user's unseen catalog, the tail of the top-k is
        # masked seen items at -inf; a serving response must not pad with
        # them, so the list is truncated instead.
        top_scores = scores[top]
        keep = np.isfinite(top_scores)
        top, top_scores = top[keep], top_scores[keep]
        if ids is not None:
            return ids[top], top_scores
        return top.astype(np.int64), top_scores

    # ------------------------------------------------------------------ #
    # probes
    # ------------------------------------------------------------------ #
    def ready(self) -> bool:
        """Readiness: a live model exists and the catalog is servable.

        A breaker-open live model still reports ready — the degradation
        ladder answers — but health() exposes the breaker states so an
        operator can see the service is running on fallbacks.
        """
        return self.registry.has_live and self.dataset.num_items > 0

    def health(self) -> dict:
        """Liveness/diagnostics snapshot (JSON-safe)."""
        live = self.registry.live_name if self.registry.has_live else None
        breakers = {name: b.snapshot() for name, b in self._breakers.items()}
        return {
            "ready": self.ready(),
            "live_model": live,
            "live_breaker_state": breakers[live]["state"] if live else None,
            "rungs": [name for name, __, ___ in self._chain()],
            "breakers": breakers,
            "admission": self.admission.snapshot() if self.admission else None,
            "metrics": self.metrics.snapshot(),
            "promotions": [r.describe() for r in self.registry.history],
        }

    def breaker_transitions(self) -> list[str]:
        """Every breaker transition so far, as deterministic strings."""
        out = []
        for name, breaker in self._breakers.items():
            out.extend(f"{name}: {t.describe()}" for t in breaker.transitions)
        return out
