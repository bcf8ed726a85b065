"""Churn matrix: seeded stream x fault replays with bitwise assertions.

The online analogue of the store's crash matrix
(:mod:`repro.store.harness`): for every online fault kind and every
seed, build a full world — stream, shadow trainer on a
:class:`~repro.online.trainer.ManifestCrashIO`-backed store, serving
stack — replay the stream under a deterministic fault plan, and assert
the loop's safety contract:

* **bitwise old-or-new** — the served (or, after a crash, recovered)
  entity table is byte-for-byte equal to exactly one *committed*
  generation, never a hybrid;
* **bounded quarantine** — every poisoned batch is quarantined with a
  typed :class:`~repro.core.exceptions.OnlineUpdateError` (counted,
  never silently dropped), and only up to the consecutive limit;
* **typed outcomes throughout** — every rejected promotion carries a
  structured :class:`~repro.serving.registry.PromotionRecord` rejection,
  every rollback a structured cause, and every watch response one of
  the four serve statuses;
* **determinism** — a fault-free replay run twice produces
  byte-identical traces.

:func:`freshness_report` measures what the loop buys: hit-rate against
the stream's hidden ground truth on *newly introduced* users, served
online vs a baseline frozen at the bootstrap generation.
:func:`churn_cells` is the online cell function of
``python -m repro fault-matrix``: every kind's cell plus the determinism
and freshness checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.clock import ManualClock
from repro.core.dataset import Dataset
from repro.core.interactions import InteractionMatrix
from repro.runtime.faults import (
    ONLINE_FAULT_KINDS,
    Fault,
    FaultCell,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
)
from repro.serving.service import STATUSES, RecommenderService
from repro.store.mmap import MmapShardStore
from repro.store.serving import StoredEmbeddingRecommender
from repro.online.loop import OnlineLoop, make_candidate, unwrap_candidate
from repro.online.stream import InteractionStream, StreamConfig
from repro.online.trainer import ENTITY_TABLE, ManifestCrashIO, ShadowTrainer

__all__ = [
    "ChurnConfig",
    "World",
    "build_world",
    "default_plan_for",
    "run_churn_cell",
    "freshness_report",
    "churn_cells",
]

#: Cut-off of the ranking :func:`freshness_report` scores.
FRESHNESS_K = 10


@dataclass(frozen=True)
class ChurnConfig:
    """One churn-matrix scenario (sized for seconds-fast CI cells)."""

    num_batches: int = 60
    commit_every: int = 8
    quarantine_limit: int = 2
    watch_requests: int = 6
    model_dim: int = 16
    rows_per_shard: int = 32
    k_candidates: int = 64
    stream: StreamConfig = field(default_factory=StreamConfig)


@dataclass
class World:
    """Everything one replay owns; ``loop.close()`` releases the stores."""

    seed: int
    clock: ManualClock
    stream: InteractionStream
    trainer: ShadowTrainer
    dataset: Dataset
    service: RecommenderService
    loop: OnlineLoop
    injector: FaultInjector | None
    store_dir: Path
    bootstrap_generation: int


def build_world(
    workdir: str | Path,
    seed: int,
    plan: FaultPlan | None = None,
    config: ChurnConfig | None = None,
    telemetry=None,
    stream_factory=None,
    io: ManifestCrashIO | None = None,
) -> World:
    """Build a complete online world rooted at ``workdir``.

    ``stream_factory(config, clock, seed)`` overrides how the
    interaction stream is built — the hook the traffic simulator uses to
    drive the loop from persona streams
    (:func:`repro.traffic.stream.persona_stream_factory`) instead of the
    default :class:`InteractionStream`.  ``io`` is the store's IO layer
    (a fresh :class:`ManifestCrashIO` by default); pass a subclass that
    also records ops to read back the store's commits.
    """
    config = config if config is not None else ChurnConfig()
    c = config.stream
    workdir = Path(workdir)
    clock = ManualClock()
    stream = (
        stream_factory(c, clock, seed)
        if stream_factory is not None
        else InteractionStream(c, clock=clock, seed=seed)
    )
    store_dir = workdir / "store"
    trainer, generation = ShadowTrainer.bootstrap(
        store_dir, c.num_users, c.num_items, dim=config.model_dim,
        seed=seed, rows_per_shard=config.rows_per_shard,
        io=io if io is not None else ManifestCrashIO(),
    )
    users, items = stream.warm_interactions()
    dataset = Dataset(
        name=f"online-world-s{seed}",
        interactions=InteractionMatrix(users, items, c.num_users, c.num_items),
    )
    keep: list[MmapShardStore] = []
    primary = make_candidate(
        store_dir, dataset, c.num_users, c.num_items, generation,
        index_seed=seed, k_candidates=config.k_candidates, keep=keep,
    )
    injector = (
        FaultInjector(plan, sleep=clock.advance) if plan is not None else None
    )
    service = RecommenderService(
        dataset,
        primary=(f"gen{generation}", primary),
        clock=clock,
        telemetry=telemetry,
    )
    loop = OnlineLoop(
        stream, trainer, service,
        injector=injector,
        commit_every=config.commit_every,
        quarantine_limit=config.quarantine_limit,
        watch_requests=config.watch_requests,
        index_seed=seed,
        k_candidates=config.k_candidates,
    )
    loop._serve_stores.extend(keep)
    return World(
        seed=seed, clock=clock, stream=stream, trainer=trainer,
        dataset=dataset, service=service, loop=loop, injector=injector,
        store_dir=store_dir, bootstrap_generation=generation,
    )


def default_plan_for(kind: str, config: ChurnConfig | None = None) -> FaultPlan:
    """The deterministic per-kind plan the matrix replays.

    Batch-shaped kinds land mid-stream; promotion-shaped kinds land on
    the second commit cycle's batch step (``2 * commit_every - 1``), so
    one healthy post-bootstrap promotion exists before the fault — which
    is what makes the rollback/recovery targets non-trivial.
    """
    config = config if config is not None else ChurnConfig()
    if kind == "none":
        return FaultPlan()
    mid = config.num_batches // 2
    cycle2 = 2 * config.commit_every - 1
    if kind == "poison_batch":
        # Two consecutive poisoned batches: within the quarantine limit,
        # so the loop must absorb both and keep going.
        return FaultPlan(
            [Fault(step=mid, kind=kind), Fault(step=mid + 1, kind=kind)]
        )
    if kind == "trainer_stall":
        return FaultPlan([Fault(step=mid, kind=kind, seconds=0.05)])
    if kind in ("commit_crash", "sync_fail", "canary_regress", "late_regress"):
        return FaultPlan([Fault(step=cycle2, kind=kind)])
    raise ValueError(f"unknown online fault kind {kind!r}")


def _served_bytes(model) -> bytes:
    """The exact bytes the live model serves (unwraps chaos/two-stage)."""
    table = unwrap_candidate(model).base.store.table(ENTITY_TABLE)
    return np.ascontiguousarray(table.to_array(), dtype="<f4").tobytes()


def run_churn_cell(
    workdir: str | Path,
    seed: int,
    kind: str,
    config: ChurnConfig | None = None,
    stream_factory=None,
) -> FaultCell:
    """Replay one (seed, kind) cell and check every contract.

    The summary reads ``gen=<served> committed=[...] batches=<n> q=<n>
    promoted=<n> rejected=<n> rolled_back=<n>``, then ``CRASHED+RECOVERED``
    after a crash and ``:: <problems>`` when a contract failed.
    """
    config = config if config is not None else ChurnConfig()
    plan = default_plan_for(kind, config)
    world = build_world(
        workdir, seed, plan=plan, config=config, stream_factory=stream_factory
    )
    loop = world.loop
    problems: list[str] = []
    crashed = False
    try:
        loop.run(config.num_batches)
    except InjectedCrash:
        crashed = True

    committed = loop.committed
    served_generation: int | None = None
    if crashed:
        # Simulated process death: discard every in-memory object and
        # re-open from disk, exactly like the durability harness.
        loop.close()
        store = MmapShardStore.open(world.store_dir, mode="serve")
        served_generation = store.generation
        recovered = np.ascontiguousarray(
            store.table(ENTITY_TABLE).to_array(), dtype="<f4"
        ).tobytes()
        store.close()
        if served_generation not in committed:
            problems.append(
                f"recovered generation {served_generation} was never committed"
            )
        elif recovered != committed[served_generation]:
            problems.append(
                f"recovered bytes differ from committed generation "
                f"{served_generation} (hybrid state)"
            )
        if served_generation != max(committed):
            problems.append(
                f"crash recovery landed on {served_generation}, expected the "
                f"last committed generation {max(committed)}"
            )
        if kind != "commit_crash":
            problems.append(f"kind {kind!r} crashed unexpectedly")
    else:
        served_generation = loop.live_generation()
        served = _served_bytes(world.service.registry.live)
        if served_generation not in committed:
            problems.append(
                f"live generation {served_generation} was never committed"
            )
        elif served != committed[served_generation]:
            problems.append(
                f"served bytes differ from committed generation "
                f"{served_generation} (hybrid state)"
            )
        if kind == "commit_crash":
            problems.append("commit_crash cell did not crash")

    quarantined = [b for b in loop.batch_outcomes if b.status == "quarantined"]
    outcomes = {c.outcome for c in loop.cycles}
    injected_kinds = tuple(
        f.kind for f in (world.injector.injected if world.injector else [])
    )

    for b in quarantined:
        if "OnlineUpdateError" not in b.error:
            problems.append(
                f"quarantine at step {b.step} lacks a typed error: {b.error}"
            )
    for trace in loop.watch_traces:
        status = trace.split("|")[2]
        if status not in STATUSES:
            problems.append(f"untyped watch response status {status!r}")

    if kind == "none":
        if quarantined:
            problems.append("fault-free run quarantined batches")
        if outcomes - {"promoted", "skipped"}:
            problems.append(f"fault-free run saw outcomes {sorted(outcomes)}")
        if served_generation != max(committed):
            problems.append("fault-free run is not serving the newest commit")
    elif kind == "poison_batch":
        if len(quarantined) != len(plan):
            problems.append(
                f"{len(plan)} poisoned batches planned, "
                f"{len(quarantined)} quarantined"
            )
        if len(loop.batch_outcomes) != config.num_batches:
            problems.append("loop halted despite in-limit quarantines")
    elif kind == "trainer_stall":
        if "trainer_stall" not in injected_kinds:
            problems.append("planned stall never fired")
        if outcomes - {"promoted", "skipped"}:
            problems.append("stall affected promotion outcomes")
    elif kind == "sync_fail":
        rejected = [c for c in loop.cycles if c.outcome == "rejected"]
        if not any(c.detail.startswith("index_sync:") for c in rejected):
            problems.append("no cycle rejected with an index_sync cause")
        records = [
            r for r in world.service.registry.history
            if r.rejection and r.rejection.startswith("index_sync:")
        ]
        if not records:
            problems.append("registry history lacks the index_sync rejection")
        elif any(served_generation == r.generation for r in records):
            problems.append("the sync-failed generation is being served")
    elif kind == "canary_regress":
        rejected = [c for c in loop.cycles if c.outcome == "rejected"]
        if not any(c.detail == "canary" for c in rejected):
            problems.append("no cycle rejected by the canary probe")
        records = [
            r for r in world.service.registry.history if r.rejection == "canary"
        ]
        if not records:
            problems.append("registry history lacks the canary rejection")
        elif any(served_generation == r.generation for r in records):
            problems.append("the canary-failed generation is being served")
    elif kind == "late_regress":
        rolled = [c for c in loop.cycles if c.outcome == "rolled_back"]
        if not rolled:
            problems.append("post-promotion regression was not rolled back")
        records = [
            r for r in world.service.registry.history if r.kind == "rollback"
        ]
        if not any(
            r.rejection == "rollback:post_promotion_regression" for r in records
        ):
            problems.append("rollback record lacks the structured cause")
        if rolled and served_generation is not None and any(
            c.generation == served_generation for c in rolled
        ):
            problems.append("the rolled-back generation is still being served")

    if not crashed:
        loop.close()
    tally = Counter(c.outcome for c in loop.cycles)
    summary = (
        f"gen={served_generation} committed={sorted(committed)} "
        f"batches={len(loop.batch_outcomes)} q={len(quarantined)} "
        f"promoted={tally['promoted']} rejected={tally['rejected']} "
        f"rolled_back={tally['rolled_back']}"
        + (" CRASHED+RECOVERED" if crashed else "")
    )
    if problems:
        summary += " :: " + "; ".join(problems)
    return FaultCell(
        "online", seed, kind, tuple(problems),
        fired=tuple(sorted(set(injected_kinds))), summary=summary,
    )


def _replay_trace(world: World) -> list[str]:
    """The full deterministic trace of a completed replay."""
    loop = world.loop
    return (
        [b.trace() for b in loop.batch_outcomes]
        + [c.trace() for c in loop.cycles]
        + list(loop.watch_traces)
    )


def freshness_report(world: World) -> dict:
    """Hit-rate on newly introduced users: live model vs frozen baseline.

    For every newcomer whose introduction predates the last promoted
    cycle, rank the visible catalog with (a) the live store-backed model
    and (b) a baseline pinned at the bootstrap generation, and measure
    how much of the newcomer's *applied* interaction history lands in
    the top-:data:`FRESHNESS_K` — operationally: does what we serve a
    brand-new user reflect what they just did?  The frozen baseline
    cannot (their row is still at its random init), so the gap is the
    freshness the online loop buys.  Also reports how many newly
    introduced *items* each model surfaces in some warm user's top-k
    ("exposure").
    """
    stream = world.stream
    loop = world.loop
    promoted_steps = [c.step for c in loop.cycles if c.outcome == "promoted"]
    cutoff = max(promoted_steps) if promoted_steps else -1
    newcomers = [
        u for (s, u) in stream.introduced_users
        if s <= cutoff and loop.applied_interactions.get(u)
    ]
    fresh_items = [i for (s, i) in stream.introduced_items if s <= cutoff]
    visible = stream.seen_items

    live = unwrap_candidate(world.service.registry.live).base
    frozen_store = MmapShardStore.open(
        world.store_dir, mode="serve", generation=world.bootstrap_generation
    )
    frozen = StoredEmbeddingRecommender(
        frozen_store,
        user_entities=live.user_entities,
        item_entities=live.item_entities,
        entity_table=ENTITY_TABLE,
    ).fit(world.dataset)

    def topk(model, user: int) -> np.ndarray:
        scores = np.asarray(model.score_all(int(user)))[:visible]
        kk = min(FRESHNESS_K, visible)
        top = np.argpartition(-scores, kk - 1)[:kk]
        return top[np.argsort(-scores[top], kind="stable")]

    def hit_rate(model) -> float:
        if not newcomers:
            return 0.0
        total = 0.0
        for u in newcomers:
            truth = loop.applied_interactions[u]
            got = len(truth & set(topk(model, u).tolist()))
            total += got / min(len(truth), FRESHNESS_K)
        return total / len(newcomers)

    def item_exposure(model) -> float:
        if not fresh_items:
            return 0.0
        surfaced: set[int] = set()
        for u in range(min(16, stream.config.warm_users)):
            surfaced.update(topk(model, u).tolist())
        return len(set(fresh_items) & surfaced) / len(fresh_items)

    report = {
        "k": FRESHNESS_K,
        "newcomer_users": len(newcomers),
        "new_items": len(fresh_items),
        "live_generation": loop.live_generation(),
        "frozen_generation": world.bootstrap_generation,
        "hit_rate_online": hit_rate(live),
        "hit_rate_frozen": hit_rate(frozen),
        "new_item_exposure_online": item_exposure(live),
        "new_item_exposure_frozen": item_exposure(frozen),
    }
    report["freshness_uplift"] = (
        report["hit_rate_online"] - report["hit_rate_frozen"]
    )
    frozen_store.close()
    return report


def churn_cells(seed: int, workdir: str | Path) -> list[FaultCell]:
    """Every kind's churn cell for ``seed``, then determinism + freshness.

    The determinism cell replays the fault-free stream twice and requires
    byte-identical traces; its second world must serve newcomers at least
    as well as the baseline frozen at the bootstrap generation.
    """
    config = ChurnConfig()
    workdir = Path(workdir)
    cells = [
        run_churn_cell(workdir / kind, seed, kind, config)
        for kind in ("none",) + ONLINE_FAULT_KINDS
    ]
    traces = []
    for run in ("a", "b"):
        world = build_world(
            workdir / f"determinism-{run}", seed, plan=FaultPlan(),
            config=config,
        )
        world.loop.run(config.num_batches)
        traces.append(_replay_trace(world))
        if run == "b":
            fresh = freshness_report(world)
        world.loop.close()
    problems = []
    if traces[0] != traces[1]:
        problems.append("fault-free replay is not deterministic")
    if fresh["hit_rate_online"] + 1e-12 < fresh["hit_rate_frozen"]:
        problems.append(
            f"online freshness {fresh['hit_rate_online']:.3f} fell below "
            f"the frozen baseline {fresh['hit_rate_frozen']:.3f}"
        )
    cells.append(FaultCell(
        "online", seed, "determinism", tuple(problems),
        summary=(
            f"{len(traces[0])} trace lines identical; freshness newcomers="
            f"{fresh['newcomer_users']} online={fresh['hit_rate_online']:.3f} "
            f"frozen={fresh['hit_rate_frozen']:.3f} "
            f"uplift={fresh['freshness_uplift']:+.3f}"
        ),
    ))
    return cells
