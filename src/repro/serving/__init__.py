"""Fault-tolerant in-process serving layer for fitted recommenders.

The training side of the repo has had a resilience story since
``repro.runtime``; this package is its inference-boundary counterpart —
the piece a production system puts between user traffic and a model that
can misbehave (see ``docs/serving.md``):

* :mod:`repro.serving.service` — :class:`RecommenderService`: request
  validation, typed outcomes (ok / degraded / shed / rejected), health
  and readiness probes, per-endpoint metrics.
* :mod:`repro.serving.breaker` — per-model circuit breakers
  (closed -> open -> half-open) on an injectable clock.
* :mod:`repro.serving.deadline` — cooperative per-request budgets.
* :mod:`repro.serving.admission` — bounded admission queue with explicit
  :class:`~repro.core.exceptions.Overloaded` load shedding.
* :mod:`repro.serving.fallback` — the degradation ladder's infallible
  :class:`StaticTopK` last resort.
* :mod:`repro.serving.registry` — validate-then-promote model hot swap
  with canary probes and atomic rollback.
* :mod:`repro.serving.demo` — the seeded chaos replay: the serving
  cells of ``python -m repro fault-matrix``.

Everything is deterministic under seed: time is injectable
(:class:`~repro.core.clock.ManualClock`), faults come from seeded
:class:`~repro.runtime.faults.FaultPlan`\\ s, and two replays of the same
seed produce bitwise-identical response traces.
"""

from __future__ import annotations

from .admission import AdmissionQueue
from .breaker import BreakerTransition, CircuitBreaker
from .deadline import Deadline
from .fallback import StaticTopK
from .metrics import ServiceMetrics
from .registry import ModelRegistry, PromotionRecord
from .service import (
    RecommenderService,
    ServeRequest,
    ServeResponse,
    validate_request,
)

__all__ = [
    "AdmissionQueue",
    "BreakerTransition",
    "CircuitBreaker",
    "Deadline",
    "StaticTopK",
    "ServiceMetrics",
    "ModelRegistry",
    "PromotionRecord",
    "RecommenderService",
    "ServeRequest",
    "ServeResponse",
    "validate_request",
]
