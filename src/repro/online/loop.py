"""The continuous-deployment loop: stream -> shadow train -> promote.

:class:`OnlineLoop` wires the whole online path together:

1. consume one session batch from an
   :class:`~repro.online.stream.InteractionStream` (fault hooks may
   stall the trainer or poison the batch);
2. apply it to the shadow copy via
   :class:`~repro.online.trainer.ShadowTrainer` — a poisoned batch is
   **quarantined**: the typed
   :class:`~repro.core.exceptions.OnlineUpdateError` is recorded, the
   model is untouched, and the loop moves on.  The skip is *bounded*:
   more than ``quarantine_limit`` consecutive quarantines raises
   :class:`~repro.core.exceptions.OnlineError`, so a dead upstream feed
   halts the loop instead of silently serving ever-staler models;
3. every ``commit_every`` applied batches, run a **promotion cycle**:
   commit the dirty rows as a new store generation (the manifest rename
   is the crash-safe commit point) and, while the store's worker thread
   writes it, build the candidate's ANN index on this thread from the
   item rows of the very bytes being committed; then open a *pinned*
   serve-mode view of that generation, wrap it and the built index in a
   fresh two-stage candidate, and push it through
   :meth:`RecommenderService.promote` — whose index sync finds the index
   fresh, and whose canary probe runs before the atomic swap.  The
   index is the live index's
   :meth:`~repro.retrieval.ivf.IvfIndex.successor`, so its build refines
   the live centroids instead of clustering from scratch;
4. after a successful swap, serve a short seeded **post-promotion
   watch**: a majority of non-ok responses rolls the live model back
   through :meth:`RecommenderService.rollback` with a structured cause;
5. close every serve-mode store that neither the live model nor the
   rollback target holds, so a long-running loop keeps at most two
   generations mapped, and drop the reference bytes of every generation
   that is neither servable nor the newest (:attr:`OnlineLoop.committed`
   keeps listing it).

Every served model holds its own serve-mode store pinned at its own
generation, so the live model and the rollback target never share a
manifest — the served bytes are always exactly one committed
generation, bitwise (the churn harness asserts this).

Faults planned for a cycle's batch step are executed here:
``commit_crash`` arms the trainer IO's manifest-crash hook (see
:class:`~repro.online.trainer.ManifestCrashIO`); ``sync_fail`` /
``canary_regress`` / ``late_regress`` wrap the candidate in a
:class:`ChaosCandidate` before promotion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.exceptions import (
    ConfigError,
    IndexStaleError,
    OnlineError,
    OnlineUpdateError,
    PromotionError,
    StoreError,
)
from repro.core.rng import ensure_rng
from repro.retrieval.ivf import IvfIndex
from repro.retrieval.two_stage import TwoStageRecommender
from repro.runtime.faults import FaultInjector
from repro.serving.service import DEFAULT_K, RecommenderService, ServeRequest
from repro.store.mmap import MmapShardStore
from repro.store.serving import StoredEmbeddingRecommender
from repro.online.stream import InteractionStream
from repro.online.trainer import ENTITY_TABLE, ShadowTrainer

__all__ = [
    "BatchOutcome",
    "PromotionCycle",
    "ChaosCandidate",
    "make_candidate",
    "unwrap_candidate",
    "OnlineLoop",
]


@dataclass(frozen=True)
class BatchOutcome:
    """Typed outcome of one interaction batch: applied or quarantined."""

    step: int
    status: str  # "applied" | "quarantined"
    rows_touched: int = 0
    error: str = ""

    def trace(self) -> str:
        return f"{self.step}|{self.status}|rows={self.rows_touched}|err={self.error}"


@dataclass(frozen=True)
class PromotionCycle:
    """Typed outcome of one commit+promote cycle.

    ``outcome`` is one of ``"promoted"`` / ``"rejected"`` /
    ``"rolled_back"`` / ``"skipped"``; ``detail`` carries the structured
    cause (the :class:`PromotionRecord` rejection for rejections, the
    watch verdict for rollbacks).
    """

    step: int
    generation: int | None
    outcome: str
    detail: str = ""
    latency: float = 0.0

    def trace(self) -> str:
        return (
            f"{self.step}|gen={self.generation}|{self.outcome}|"
            f"lat={self.latency:.6f}|{self.detail}"
        )


def make_candidate(
    store_dir: str | Path,
    dataset,
    num_users: int,
    num_items: int,
    generation: int,
    index_seed: int = 0,
    k_candidates: int = 64,
    keep: list | None = None,
    index: IvfIndex | None = None,
) -> TwoStageRecommender:
    """A fresh two-stage candidate pinned at one store ``generation``.

    Opens its *own* serve-mode view (verified against the pinned
    manifest), so the candidate never shares mapped shards with the
    current live model — promotion and rollback swap whole models, and
    a served score can only ever come from one committed generation.
    ``keep`` collects the opened store for caller-owned cleanup.
    ``index`` is the unbuilt index to attach (default: a cold
    ``IvfIndex(seed=index_seed)``).
    """
    store = MmapShardStore.open(store_dir, mode="serve", generation=int(generation))
    if keep is not None:
        keep.append(store)
    base = StoredEmbeddingRecommender(
        store,
        user_entities=np.arange(num_users, dtype=np.int64),
        item_entities=num_users + np.arange(num_items, dtype=np.int64),
        entity_table=ENTITY_TABLE,
    )
    if index is None:
        index = IvfIndex(seed=index_seed)
    two = TwoStageRecommender(base, index, k_candidates=k_candidates)
    return two.fit(dataset)


class ChaosCandidate:
    """Fault-plan wrapper for a promotion candidate.

    Implements the ``sync_fail`` / ``canary_regress`` / ``late_regress``
    online fault kinds by intercepting exactly the calls the registry
    and service make; everything else forwards to the wrapped
    candidate.  ``late_regress`` stays healthy through the canary probe
    and regresses (NaN scores) only after :meth:`arm` — which the loop
    calls right after the swap, modeling a candidate that breaks under
    real traffic.
    """

    supports_candidates = True

    def __init__(
        self,
        inner: TwoStageRecommender,
        fail_sync: bool = False,
        regress: str = "never",  # "never" | "canary" | "late"
    ) -> None:
        if regress not in ("never", "canary", "late"):
            raise ConfigError(f"unknown regress mode {regress!r}")
        self.inner = inner
        self.fail_sync = bool(fail_sync)
        self.regress = regress
        self._armed = regress == "canary"

    def arm(self) -> None:
        self._armed = True

    def __getattr__(self, name):
        return getattr(self.inner, name)

    @property
    def generation(self) -> int | None:
        return self.inner.generation

    def sync_index(self, force: bool = False) -> int | None:
        if self.fail_sync:
            raise IndexStaleError(
                "injected index rebuild failure (sync_fail fault)"
            )
        return self.inner.sync_index(force)

    def _poison(self, scores: np.ndarray) -> np.ndarray:
        scores = np.asarray(scores, dtype=np.float64).copy()
        scores[...] = np.nan
        return scores

    def score_candidates(self, user_id: int, k: int | None = None):
        ids, scores = self.inner.score_candidates(user_id, k)
        if self._armed:
            scores = self._poison(scores)
        return ids, scores

    def score_all(self, user_id: int) -> np.ndarray:
        scores = self.inner.score_all(user_id)
        return self._poison(scores) if self._armed else np.asarray(scores)


def unwrap_candidate(model):
    """The candidate a :class:`ChaosCandidate` wraps (else ``model``)."""
    return model.inner if isinstance(model, ChaosCandidate) else model


def _serve_store(model) -> MmapShardStore | None:
    """The serve-mode store behind a loop-built candidate."""
    return getattr(getattr(unwrap_candidate(model), "base", None), "store", None)


class OnlineLoop:
    """Drives the stream -> trainer -> promote pipeline (see module doc)."""

    def __init__(
        self,
        stream: InteractionStream,
        trainer: ShadowTrainer,
        service: RecommenderService,
        injector: FaultInjector | None = None,
        commit_every: int = 8,
        quarantine_limit: int = 2,
        watch_requests: int = 6,
        index_seed: int = 0,
        k_candidates: int = 64,
    ) -> None:
        if commit_every < 1:
            raise ConfigError("commit_every must be >= 1")
        if quarantine_limit < 0:
            raise ConfigError("quarantine_limit must be >= 0")
        if watch_requests < 1:
            raise ConfigError("watch_requests must be >= 1")
        self.stream = stream
        self.trainer = trainer
        self.service = service
        self.injector = injector
        self.commit_every = int(commit_every)
        self.quarantine_limit = int(quarantine_limit)
        self.watch_requests = int(watch_requests)
        self.index_seed = int(index_seed)
        self.k_candidates = int(k_candidates)
        self.clock = service.clock
        self.dataset = service.dataset
        self.telemetry = service.telemetry

        #: Every committed generation, mapped to its bitwise ``<f4``
        #: table bytes — the reference the churn harness compares served
        #: models against.  Only the live generation, the rollback target
        #: and the newest (what serving or crash recovery can land on)
        #: keep their bytes; every other generation maps to ``None``, so
        #: at most three tables are held however long the loop runs.
        #: Seeded with the bootstrap generation.
        self.committed: dict[int, bytes | None] = {
            trainer.store.generation: trainer.table_bytes()
        }
        self.batch_outcomes: list[BatchOutcome] = []
        self.cycles: list[PromotionCycle] = []
        #: Per-user item sets the trainer actually learned from (poisoned
        #: batches never land here) — the freshness metric's truth.
        self.applied_interactions: dict[int, set[int]] = {}
        self.watch_traces: list[str] = []
        #: Real wall-clock promote latencies (perf_counter seconds) for
        #: the benchmark; deliberately outside the deterministic trace.
        self.promote_wall_times: list[float] = []
        self._watch_rng = ensure_rng(stream.seed + 2)
        self._serve_stores: list[MmapShardStore] = []
        self._applied_since_commit = 0
        self._consecutive_quarantined = 0

    # ------------------------------------------------------------------ #
    def run(self, num_batches: int) -> None:
        """Consume ``num_batches`` sessions, promoting on cadence.

        An :class:`~repro.runtime.faults.InjectedCrash` (the
        ``commit_crash`` fault) propagates — it is simulated process
        death, and only the harness may catch it.
        """
        for __ in range(int(num_batches)):
            batch = self.stream.next_batch()
            self._process_batch(batch)
            if self._applied_since_commit >= self.commit_every:
                self._applied_since_commit = 0
                self.cycles.append(self._promote_cycle(batch.step))
                self._release_unservable()

    def _process_batch(self, batch) -> None:
        tel = self.telemetry
        users, items, weights = batch.users, batch.items, batch.weights
        if self.injector is not None:
            self.injector.on_online_batch(batch.step)
            users, items, weights = self.injector.corrupt_interactions(
                batch.step, users, items, weights
            )
        try:
            rows = self.trainer.apply(users, items, weights)
        except OnlineUpdateError as exc:
            self._consecutive_quarantined += 1
            self.batch_outcomes.append(
                BatchOutcome(
                    step=batch.step, status="quarantined",
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            if tel.enabled:
                tel.counter("online.batches.quarantined").inc()
            if self._consecutive_quarantined > self.quarantine_limit:
                raise OnlineError(
                    f"{self._consecutive_quarantined} consecutive batches "
                    f"quarantined (limit {self.quarantine_limit}); the "
                    "upstream feed looks dead — halting the online loop"
                ) from exc
            return
        self._consecutive_quarantined = 0
        self._applied_since_commit += 1
        for user, item in zip(users.tolist(), items.tolist()):
            self.applied_interactions.setdefault(int(user), set()).add(int(item))
        self.batch_outcomes.append(
            BatchOutcome(
                step=batch.step, status="applied", rows_touched=int(rows.size)
            )
        )
        if tel.enabled:
            tel.counter("online.batches.applied").inc()
            tel.counter("online.rows.touched").inc(int(rows.size))

    # ------------------------------------------------------------------ #
    def _promote_cycle(self, step: int) -> PromotionCycle:
        tel = self.telemetry
        kinds = (
            {f.kind for f in self.injector.promotion_faults(step)}
            if self.injector is not None
            else set()
        )
        t0 = self.clock()
        wall0 = time.perf_counter()
        span = (
            tel.begin("online/promote_cycle", step=step) if tel.enabled else None
        )

        def finish(cycle: PromotionCycle) -> PromotionCycle:
            self.promote_wall_times.append(time.perf_counter() - wall0)
            if span is not None:
                tel.end(
                    span, outcome=cycle.outcome,
                    reason=cycle.detail or None,
                    generation=cycle.generation,
                )
            return cycle

        if "commit_crash" in kinds:
            arm = getattr(self.trainer.store.io, "arm_manifest_crash", None)
            if not callable(arm):
                raise ConfigError(
                    "commit_crash fault planned but the trainer store's IO "
                    "cannot arm a manifest crash; build the trainer on "
                    "repro.online.trainer.ManifestCrashIO"
                )
            arm()
        # Nothing writes the table between this snapshot and the commit,
        # so it holds exactly the bytes the commit persists: the index is
        # built from its item rows while the store's worker writes them.
        snapshot = self.trainer.table_bytes()
        items = np.frombuffer(snapshot, dtype="<f4").reshape(-1, self.trainer.dim)[
            self.trainer.num_users :
        ]
        index = self._successor_index()
        build_errors: list[Exception] = []

        def build_index(generation: int) -> None:
            try:
                index.build(items, generation=generation)
            except Exception as exc:  # judged by the registry's index sync
                build_errors.append(exc)

        try:
            generation = self.trainer.commit(
                tag=f"online-step{step:05d}", overlap=build_index
            )
        except StoreError as exc:
            # Aborted commit (e.g. fsync failure): typed and retryable —
            # the dirty masks stay set, the old generation keeps serving.
            return finish(
                PromotionCycle(
                    step=step, generation=None, outcome="rejected",
                    detail=f"commit_aborted:{type(exc).__name__}",
                    latency=self.clock() - t0,
                )
            )
        if generation in self.committed:
            return finish(
                PromotionCycle(
                    step=step, generation=generation, outcome="skipped",
                    detail="no dirty rows", latency=self.clock() - t0,
                )
            )
        self.committed[generation] = snapshot
        if build_errors:
            # An unbuilt index: the registry's sync rebuilds it and rejects
            # the candidate as ``index_sync:<Type>`` if the build fails again.
            index = self._successor_index()

        candidate = make_candidate(
            self.trainer.store.directory, self.dataset,
            self.trainer.num_users, self.trainer.num_items, generation,
            index_seed=self.index_seed, k_candidates=self.k_candidates,
            keep=self._serve_stores, index=index,
        )
        chaos: ChaosCandidate | None = None
        if kinds & {"sync_fail", "canary_regress", "late_regress"}:
            chaos = ChaosCandidate(
                candidate,
                fail_sync="sync_fail" in kinds,
                regress=(
                    "canary" if "canary_regress" in kinds
                    else "late" if "late_regress" in kinds
                    else "never"
                ),
            )
        name = f"gen{generation}"
        try:
            self.service.promote(name, chaos if chaos is not None else candidate)
        except PromotionError:
            record = self.service.registry.history[-1]
            return finish(
                PromotionCycle(
                    step=step, generation=generation, outcome="rejected",
                    detail=record.rejection or record.reason,
                    latency=self.clock() - t0,
                )
            )
        if chaos is not None and chaos.regress == "late":
            chaos.arm()
        not_ok = self._watch()
        if not_ok > self.watch_requests // 2:
            restored = self.service.rollback(cause="post_promotion_regression")
            return finish(
                PromotionCycle(
                    step=step, generation=generation, outcome="rolled_back",
                    detail=(
                        f"watch: {not_ok}/{self.watch_requests} non-ok "
                        f"responses; restored {restored!r}"
                    ),
                    latency=self.clock() - t0,
                )
            )
        return finish(
            PromotionCycle(
                step=step, generation=generation, outcome="promoted",
                latency=self.clock() - t0,
            )
        )

    def _successor_index(self) -> IvfIndex:
        """An unbuilt index for the next candidate: the live built index's
        successor, else a cold ``IvfIndex(seed=index_seed)``."""
        registry = self.service.registry
        live = unwrap_candidate(registry.live) if registry.has_live else None
        if isinstance(live, TwoStageRecommender) and live.index.is_built:
            return live.index.successor()
        return IvfIndex(seed=self.index_seed)

    def _release_unservable(self) -> None:
        """Close the serve stores no servable model holds, and drop the
        committed bytes of generations nothing can land on again.

        Only the live model and the registry's rollback target can serve
        again; rejected candidates and demoted generations cannot.  Crash
        recovery lands on the newest committed generation, so its bytes
        stay too.
        """
        registry = self.service.registry
        held = [registry.live] if registry.has_live else []
        if registry._previous is not None:
            held.append(registry._previous[1])
        held_ids = {id(_serve_store(model)) for model in held}
        kept = []
        for store in self._serve_stores:
            if id(store) in held_ids:
                kept.append(store)
            else:
                store.close()
        self._serve_stores = kept
        keep = {getattr(model, "generation", None) for model in held}
        keep.add(max(self.committed))
        for generation in self.committed:
            if generation not in keep:
                self.committed[generation] = None

    def _watch(self) -> int:
        """Seeded post-promotion probe traffic; returns non-ok count.

        Every response is a typed outcome (``serve`` never raises); the
        traces are recorded for the determinism checks.
        """
        not_ok = 0
        for __ in range(self.watch_requests):
            user = int(self._watch_rng.integers(self.stream.seen_users))
            response = self.service.serve(
                ServeRequest(user_id=user, k=DEFAULT_K, exclude_seen=False)
            )
            self.watch_traces.append(response.trace())
            if response.status != "ok":
                not_ok += 1
        return not_ok

    # ------------------------------------------------------------------ #
    def live_generation(self) -> int | None:
        """The store generation of the currently live model."""
        model = self.service.registry.live
        generation = getattr(model, "generation", None)
        return int(generation) if generation is not None else None

    def close(self) -> None:
        self.trainer.store.close()
        for store in self._serve_stores:
            store.close()
