"""Model registry with validate-then-promote hot swap.

The registry owns the *live* model a :class:`RecommenderService` scores
with.  Swapping in a new model is an atomic validate-then-promote:

1. the candidate runs a **canary probe** — ``score_all`` over a fixed
   batch of canary users, every output checked with
   :func:`repro.runtime.guards.validate_scores` (finite + shape);
2. only if every canary vector passes does the candidate become live
   (one reference assignment, so readers never observe a half-swapped
   state);
3. any failure raises :class:`~repro.core.exceptions.PromotionError`
   and leaves the previous live model untouched — rollback is the
   absence of the swap.

The previous model is retained so :meth:`rollback` can demote a
promotion that passed its canary but misbehaves under real traffic
(e.g. its circuit breaker opens).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.exceptions import ModelUnavailableError, PromotionError
from repro.core.recommender import Recommender
from repro.runtime.guards import ScoreReport, validate_scores
from repro.telemetry.base import NULL

__all__ = ["PromotionRecord", "ModelRegistry"]


@dataclass(frozen=True)
class PromotionRecord:
    """Outcome of one promotion attempt (or a recorded rollback).

    ``generation`` records the embedding-store generation the candidate
    serves from, when it serves from one — so an audit can tie a
    promotion to the exact on-disk manifest it made live.

    ``rejection`` is the *structured* cause when the attempt did not
    stick: ``"index_sync:<ExcType>"`` for a ``sync_index`` failure (e.g.
    ``index_sync:IndexStaleError``), ``"canary"`` for a failed canary
    probe (the per-user :class:`ScoreReport` details ride in
    ``reports``/``reason``), and ``"rollback:<cause>"`` on the record a
    :meth:`ModelRegistry.rollback` leaves behind (``kind="rollback"``).
    The same value is attached as ``reason`` on the ``serve/promote`` /
    ``serve/rollback`` telemetry spans, so ``trace-report`` outcome
    tallies break rejected promotions down by cause.
    """

    at: float
    name: str
    promoted: bool
    canary_users: tuple[int, ...]
    reason: str = ""
    reports: tuple[ScoreReport, ...] = field(default=())
    generation: int | None = None
    kind: str = "promote"
    rejection: str | None = None

    def describe(self) -> str:
        if self.kind == "rollback":
            out = f"t={self.at:.3f} {self.name!r} ROLLED BACK"
            if self.rejection:
                out += f" [{self.rejection}]"
            if self.reason:
                out += f": {self.reason}"
            return out
        verdict = "promoted" if self.promoted else "REJECTED"
        out = f"t={self.at:.3f} {self.name!r} {verdict}"
        if self.generation is not None:
            out += f" (store generation {self.generation})"
        if self.rejection:
            out += f" [{self.rejection}]"
        if self.reason:
            out += f": {self.reason}"
        return out


class ModelRegistry:
    """Holds the live model and the promotion/rollback history."""

    def __init__(
        self,
        num_items: int,
        clock: Callable[[], float] = time.monotonic,
        telemetry=None,
    ) -> None:
        self.num_items = int(num_items)
        self.clock = clock
        self.telemetry = telemetry if telemetry is not None else NULL
        self._live: tuple[str, Recommender] | None = None
        self._previous: tuple[str, Recommender] | None = None
        self.history: list[PromotionRecord] = []

    # ------------------------------------------------------------------ #
    @property
    def has_live(self) -> bool:
        return self._live is not None

    @property
    def live_name(self) -> str:
        name, __ = self._require_live()
        return name

    @property
    def live(self) -> Recommender:
        __, model = self._require_live()
        return model

    def _require_live(self) -> tuple[str, Recommender]:
        if self._live is None:
            raise ModelUnavailableError("no live model has been promoted")
        return self._live

    # ------------------------------------------------------------------ #
    def probe(
        self, model: Recommender, canary_users: Sequence[int]
    ) -> list[ScoreReport]:
        """Canary smoke probe: one validated scoring call per canary user.

        A candidate rung (``supports_candidates``) is probed through
        ``score_candidates`` — the call the service will actually make —
        and validated in candidate-subset mode, so a stale or broken ANN
        index rejects the promotion instead of hiding behind an exact
        fallback.  A model call that *raises* is reported as a failed
        :class:`ScoreReport` rather than propagating, so a crashing
        candidate is rejected the same way a NaN-scoring one is.
        """
        reports: list[ScoreReport] = []
        candidate_rung = bool(getattr(model, "supports_candidates", False))
        entry = "score_candidates" if candidate_rung else "score_all"
        for user in canary_users:
            try:
                if candidate_rung:
                    ids, scores = model.score_candidates(int(user))
                else:
                    ids, scores = None, model.score_all(int(user))
            except Exception as exc:  # noqa: BLE001 - probe must not propagate
                reports.append(
                    ScoreReport(
                        ok=False, expected_items=self.num_items, actual_shape=(),
                        reason=f"{entry}({user}) raised {type(exc).__name__}: {exc}",
                    )
                )
                continue
            reports.append(
                validate_scores(scores, self.num_items, expected_indices=ids)
            )
        return reports

    def promote(
        self,
        name: str,
        model: Recommender,
        canary_users: Sequence[int],
    ) -> PromotionRecord:
        """Validate ``model`` on the canary batch, then atomically swap it in.

        For a store-backed candidate (anything exposing a ``generation``
        attribute, e.g. :class:`~repro.store.serving.StoredEmbeddingRecommender`)
        the swap moves no embedding arrays: the candidate already holds a
        mapped view of its generation, and promotion is one reference
        assignment here plus that generation recorded for the audit trail.

        A candidate exposing ``sync_index`` (a
        :class:`~repro.retrieval.two_stage.TwoStageRecommender`) gets its
        ANN index rebuilt against its current embedding generation *before*
        the canary probe, so the swap installs index and embeddings as one
        unit — a rebuild failure rejects the promotion with the previous
        live model untouched, and no live model ever pairs an index from
        one generation with embeddings from another.
        """
        canary = tuple(int(u) for u in canary_users)
        if not canary:
            raise PromotionError("canary batch is empty; refusing blind promotion")
        generation = getattr(model, "generation", None)
        generation = int(generation) if isinstance(generation, int) else None
        tel = self.telemetry
        span = (
            tel.begin(
                "serve/promote", model=name, canary_size=len(canary),
                canary_users=list(canary), generation=generation,
            )
            if tel.enabled
            else None
        )
        sync = getattr(model, "sync_index", None)
        if callable(sync):
            try:
                sync()
            except Exception as exc:  # noqa: BLE001 - rebuild failure = rejection
                reason = f"index sync failed: {type(exc).__name__}: {exc}"
                rejection = f"index_sync:{type(exc).__name__}"
                record = PromotionRecord(
                    at=self.clock(), name=name, promoted=False,
                    canary_users=canary, reason=reason,
                    generation=generation, rejection=rejection,
                )
                self.history.append(record)
                if span is not None:
                    tel.end(span, outcome="rejected", reason=rejection,
                            error=type(exc).__name__)
                raise PromotionError(f"candidate {name!r}: {reason}") from exc
        reports = self.probe(model, canary)
        bad = [(u, r) for u, r in zip(canary, reports) if not r.ok]
        if bad:
            reason = "; ".join(f"user {u}: {r.describe()}" for u, r in bad[:3])
            if len(bad) > 3:
                reason += f" (+{len(bad) - 3} more)"
            record = PromotionRecord(
                at=self.clock(), name=name, promoted=False,
                canary_users=canary, reason=reason, reports=tuple(reports),
                generation=generation, rejection="canary",
            )
            self.history.append(record)
            if span is not None:
                tel.end(span, outcome="rejected", reason="canary",
                        failed_users=len(bad))
            raise PromotionError(
                f"candidate {name!r} failed canary probe on "
                f"{len(bad)}/{len(canary)} users: {reason}"
            )
        self._previous = self._live
        self._live = (name, model)
        record = PromotionRecord(
            at=self.clock(), name=name, promoted=True,
            canary_users=canary, reports=tuple(reports), generation=generation,
        )
        self.history.append(record)
        if span is not None:
            tel.end(span, outcome="promoted")
        return record

    def rollback(self, cause: str = "operator") -> str:
        """Demote the live model back to its predecessor; returns its name.

        ``cause`` is the structured rollback reason (e.g.
        ``"post_promotion_regression"``); it is recorded durably in
        :attr:`history` as a ``kind="rollback"`` record with
        ``rejection="rollback:<cause>"`` and attached to the
        ``serve/rollback`` span, so an audit can answer *why* a
        generation was demoted, not just that it was.
        """
        if self._previous is None:
            raise ModelUnavailableError("no previous model to roll back to")
        demoted = self._live[0] if self._live else ""
        rejection = f"rollback:{cause}"
        tel = self.telemetry
        span = (
            tel.begin("serve/rollback", from_model=demoted or None)
            if tel.enabled
            else None
        )
        self._live, self._previous = self._previous, None
        restored_name, restored = self._live
        generation = getattr(restored, "generation", None)
        generation = int(generation) if isinstance(generation, int) else None
        self.history.append(
            PromotionRecord(
                at=self.clock(), name=demoted, promoted=False,
                canary_users=(), kind="rollback", rejection=rejection,
                generation=generation,
                reason=f"live model restored to {restored_name!r}",
            )
        )
        if span is not None:
            tel.end(span, outcome="rolled_back", reason=rejection,
                    to_model=restored_name)
        return restored_name
