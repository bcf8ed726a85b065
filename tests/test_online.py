"""Tests for the online learning loop (`repro.online`).

Covers the stream's determinism and churn events, the shadow trainer's
typed admission checks and sparse-row updates, the loop's quarantine /
commit / promote / rollback mechanics, the full seeded churn matrix,
and the freshness semantics the survey's dynamic direction
(`repro.extensions.dynamic`) assumes: a newly-appended entity becomes
scoreable after one incremental update while every untouched row stays
bitwise unperturbed.
"""

import threading

import numpy as np
import pytest

from repro.core.clock import ManualClock
from repro.core.exceptions import (
    ConfigError,
    IndexStaleError,
    OnlineError,
    OnlineUpdateError,
    PromotionError,
    RetrievalError,
)
from repro.runtime.faults import (
    ONLINE_FAULT_KINDS,
    Fault,
    FaultPlan,
    InjectedCrash,
)
from repro.online import loop as loop_module
from repro.retrieval import IvfIndex
from repro.retrieval.two_stage import TwoStageRecommender
from repro.serving.registry import ModelRegistry
from repro.serving.service import STATUSES
from repro.store.mmap import MmapShardStore
from repro.telemetry import (
    Telemetry,
    activated,
    export_records,
    read_jsonl,
    render_trace_report,
    write_jsonl,
)
from repro.online import (
    ChaosCandidate,
    ENTITY_TABLE,
    InteractionStream,
    ManifestCrashIO,
    ShadowTrainer,
    StreamConfig,
    make_candidate,
)
from repro.online.harness import (
    ChurnConfig,
    _served_bytes,
    build_world,
    default_plan_for,
    freshness_report,
    run_churn_cell,
)

#: Small-but-real scenario: fast enough for unit tests, still crossing
#: several commit cycles and introducing newcomers.
SMALL = ChurnConfig(num_batches=32)


# ---------------------------------------------------------------------- #
# interaction stream
# ---------------------------------------------------------------------- #
class TestInteractionStream:
    def test_replay_is_deterministic(self):
        def traces(seed):
            stream = InteractionStream(clock=ManualClock(), seed=seed)
            return [stream.next_batch().trace() for __ in range(40)]

        assert traces(3) == traces(3)
        assert traces(3) != traces(4)

    def test_newcomers_and_new_items_are_recorded(self):
        stream = InteractionStream(clock=ManualClock(), seed=0)
        c = stream.config
        for __ in range(200):
            batch = stream.next_batch()
            for user in batch.new_users:
                assert user >= c.warm_users
            for item in batch.new_items:
                # The introducing session must interact with the item,
                # or it could never be learned from its first appearance.
                assert item in batch.items.tolist()
        assert stream.introduced_users  # churn actually happened
        assert stream.introduced_items
        # Capacity is a hard bound: ids never exceed the allocated table.
        assert stream.seen_users <= c.num_users
        assert stream.seen_items <= c.num_items
        # Introduction order is dense and sequential.
        newcomer_ids = [u for (__, u) in stream.introduced_users]
        assert newcomer_ids == list(
            range(c.warm_users, c.warm_users + len(newcomer_ids))
        )

    def test_clock_advances_per_batch(self):
        clock = ManualClock()
        stream = InteractionStream(clock=clock, seed=0)
        stream.next_batch()
        stream.next_batch()
        assert clock() == pytest.approx(2 * stream.config.arrival_gap)

    def test_requires_advanceable_clock(self):
        import time

        with pytest.raises(ConfigError, match="advance"):
            InteractionStream(clock=time.monotonic, seed=0)

    def test_warm_interactions_do_not_perturb_arrivals(self):
        a = InteractionStream(clock=ManualClock(), seed=7)
        b = InteractionStream(clock=ManualClock(), seed=7)
        a.warm_interactions()  # only b consumes the warm history later
        first_a = [a.next_batch().trace() for __ in range(10)]
        first_b = [b.next_batch().trace() for __ in range(10)]
        b.warm_interactions()
        assert first_a == first_b

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"warm_users": 0},
            {"warm_users": 99, "num_users": 48},
            {"session_size": 0},
            {"newcomer_rate": 1.5},
            {"arrival_gap": -1.0},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ConfigError):
            StreamConfig(**kwargs)


# ---------------------------------------------------------------------- #
# shadow trainer
# ---------------------------------------------------------------------- #
@pytest.fixture()
def trainer(tmp_path):
    trainer, generation = ShadowTrainer.bootstrap(
        tmp_path / "store", num_users=12, num_items=30, dim=6, seed=0,
        rows_per_shard=8, io=ManifestCrashIO(),
    )
    assert generation == 1
    yield trainer
    trainer.store.close()


class TestShadowTrainer:
    def test_bootstrap_commits_the_init(self, trainer, tmp_path):
        store = MmapShardStore.open(tmp_path / "store", mode="serve")
        on_disk = np.ascontiguousarray(
            store.table(ENTITY_TABLE).to_array(), dtype="<f4"
        ).tobytes()
        store.close()
        assert on_disk == trainer.table_bytes()

    @pytest.mark.parametrize(
        "users, items, weights, match",
        [
            ([0], [1, 2], [1.0], "length mismatch"),
            ([], [], [], "empty"),
            ([0.5], [1], [1.0], "integers"),
            ([0], [1], [np.nan], "not finite"),
            ([0], [1], [-1.0], "negative"),
            ([99], [1], [1.0], "user ids outside"),
            ([0], [99], [1.0], "item ids outside"),
            ([0], [-3], [1.0], "item ids outside"),
        ],
    )
    def test_poisoned_batches_raise_typed(
        self, trainer, users, items, weights, match
    ):
        before = trainer.table_bytes()
        with pytest.raises(OnlineUpdateError, match=match):
            trainer.apply(
                np.asarray(users), np.asarray(items),
                np.asarray(weights, dtype=np.float64),
            )
        # Quarantine means *untouched*: rejection precedes any update.
        assert trainer.table_bytes() == before
        assert trainer.batches_quarantined > 0
        assert trainer.store._dirty[ENTITY_TABLE].sum() == 0

    def test_apply_touches_exactly_the_reported_rows(self, trainer):
        before = np.frombuffer(trainer.table_bytes(), dtype="<f4").reshape(
            trainer.num_users + trainer.num_items, trainer.dim
        )
        users = np.asarray([2, 5])
        items = np.asarray([7, 11])
        touched = trainer.apply(users, items, np.ones(2))
        after = np.frombuffer(trainer.table_bytes(), dtype="<f4").reshape(
            before.shape
        )
        assert np.all(np.diff(touched) > 0)  # sorted, unique
        for row in (2, 5, trainer.num_users + 7, trainer.num_users + 11):
            assert row in touched
        untouched = np.setdiff1d(np.arange(before.shape[0]), touched)
        assert np.array_equal(before[untouched], after[untouched])
        assert not np.array_equal(before[touched], after[touched])
        assert trainer.store._dirty[ENTITY_TABLE].sum() == touched.size

    def test_commit_persists_exact_bytes(self, trainer, tmp_path):
        trainer.apply(np.asarray([0, 1]), np.asarray([3, 4]), np.ones(2))
        generation = trainer.commit(tag="t")
        assert generation == 2
        store = MmapShardStore.open(
            tmp_path / "store", mode="serve", generation=generation
        )
        on_disk = np.ascontiguousarray(
            store.table(ENTITY_TABLE).to_array(), dtype="<f4"
        ).tobytes()
        store.close()
        assert on_disk == trainer.table_bytes()

    def test_manifest_crash_recovers_previous_generation(
        self, trainer, tmp_path
    ):
        bootstrap_bytes = trainer.table_bytes()
        trainer.apply(np.asarray([0]), np.asarray([0]), np.ones(1))
        trainer.store.io.arm_manifest_crash()
        with pytest.raises(InjectedCrash, match="manifest"):
            trainer.commit(tag="doomed")
        trainer.store.close()
        # The new generation's shards may be durable, but the manifest
        # rename never happened: reopening serves the bootstrap bytes.
        store = MmapShardStore.open(tmp_path / "store", mode="serve")
        assert store.generation == 1
        recovered = np.ascontiguousarray(
            store.table(ENTITY_TABLE).to_array(), dtype="<f4"
        ).tobytes()
        store.close()
        assert recovered == bootstrap_bytes

    def test_config_validation(self, tmp_path):
        store = MmapShardStore.create(tmp_path / "s2", rows_per_shard=8)
        try:
            with pytest.raises(ConfigError, match="at least one user"):
                ShadowTrainer(store, 0, 4)
            with pytest.raises(ConfigError, match="dim"):
                ShadowTrainer(store, 4, 4, dim=0)
        finally:
            store.close()
        serve = None
        trainer2, __ = ShadowTrainer.bootstrap(tmp_path / "s3", 4, 4)
        trainer2.store.close()
        try:
            serve = MmapShardStore.open(tmp_path / "s3", mode="serve")
            with pytest.raises(ConfigError, match="train-mode"):
                ShadowTrainer(serve, 4, 4)
        finally:
            if serve is not None:
                serve.close()


# ---------------------------------------------------------------------- #
# dynamic freshness semantics (ties repro.extensions.dynamic to the loop)
# ---------------------------------------------------------------------- #
class TestDynamicFreshnessSemantics:
    """The survey's dynamic direction, made operational.

    `repro.extensions.dynamic` models drifting preferences offline; the
    online loop is what serves them.  The contract tested here is the
    freshness semantics both rely on: an entity appended mid-stream
    (newcomer user, new catalog item) must become scoreable after one
    incremental update, and that update must not perturb any other row
    bitwise.
    """

    NUM_USERS, NUM_ITEMS, WARM_USERS = 12, 30, 8

    @pytest.fixture()
    def world(self, tmp_path):
        trainer, generation = ShadowTrainer.bootstrap(
            tmp_path / "store", self.NUM_USERS, self.NUM_ITEMS,
            dim=6, seed=0, rows_per_shard=8,
        )
        # Warm history over the existing population.
        rng = np.random.default_rng(0)
        users = rng.integers(self.WARM_USERS, size=24)
        items = rng.integers(20, size=24)
        trainer.apply(users, items, np.ones(users.size))
        generation = trainer.commit(tag="warm")
        yield tmp_path / "store", trainer, generation
        trainer.store.close()

    def test_new_entity_scoreable_after_one_update(self, world):
        store_dir, trainer, generation = world
        new_user = self.WARM_USERS  # first id beyond the warm population
        new_item = 25
        item_row = trainer.num_users + new_item

        def pair_score():
            return float(trainer.entity[new_user] @ trainer.entity[item_row])

        before_bytes = np.frombuffer(
            trainer.table_bytes(), dtype="<f4"
        ).reshape(trainer.num_users + trainer.num_items, trainer.dim)
        before_score = pair_score()

        touched = trainer.apply(
            np.asarray([new_user]), np.asarray([new_item]), np.ones(1)
        )

        # The appended entities' rows were the ones updated...
        assert new_user in touched
        assert item_row in touched
        # ...the interaction is now reflected in the learned geometry...
        assert pair_score() > before_score
        # ...and every untouched row is bitwise unperturbed.
        after_bytes = np.frombuffer(
            trainer.table_bytes(), dtype="<f4"
        ).reshape(before_bytes.shape)
        untouched = np.setdiff1d(
            np.arange(before_bytes.shape[0]), touched
        )
        assert np.array_equal(before_bytes[untouched], after_bytes[untouched])

    def test_served_candidate_reflects_the_update(self, world):
        store_dir, trainer, __ = world
        new_user = self.WARM_USERS
        new_item = 25

        from repro.core.dataset import Dataset
        from repro.core.interactions import InteractionMatrix

        dataset = Dataset(
            name="dyn",
            interactions=InteractionMatrix(
                np.asarray([0, 1, 2]), np.asarray([0, 1, 2]),
                self.NUM_USERS, self.NUM_ITEMS,
            ),
        )

        def rank_of_item(generation):
            keep = []
            candidate = make_candidate(
                store_dir, dataset, self.NUM_USERS, self.NUM_ITEMS,
                generation, keep=keep,
            )
            scores = np.asarray(candidate.score_all(new_user))
            for store in keep:
                store.close()
            assert scores.shape == (self.NUM_ITEMS,)
            assert np.all(np.isfinite(scores))
            order = np.argsort(-scores, kind="stable")
            return int(np.where(order == new_item)[0][0])

        frozen_generation = trainer.store.generation
        rank_frozen = rank_of_item(frozen_generation)
        for __ in range(3):  # a few sessions: the pair should dominate
            trainer.apply(
                np.asarray([new_user]), np.asarray([new_item]), np.ones(1)
            )
        fresh_generation = trainer.commit(tag="fresh")
        rank_fresh = rank_of_item(fresh_generation)
        assert rank_fresh < rank_frozen  # the interacted item moved up
        assert rank_fresh < 5


# ---------------------------------------------------------------------- #
# the loop: quarantine, cadence, typed outcomes
# ---------------------------------------------------------------------- #
class TestOnlineLoop:
    def test_fault_free_cadence_and_bookkeeping(self, tmp_path):
        world = build_world(tmp_path, seed=0, plan=FaultPlan(), config=SMALL)
        world.loop.run(SMALL.num_batches)
        loop = world.loop
        assert len(loop.batch_outcomes) == SMALL.num_batches
        assert all(b.status == "applied" for b in loop.batch_outcomes)
        # One cycle per commit_every applied batches, on the right steps.
        expected = SMALL.num_batches // SMALL.commit_every
        assert len(loop.cycles) == expected
        assert [c.step for c in loop.cycles] == [
            k * SMALL.commit_every - 1 for k in range(1, expected + 1)
        ]
        assert {c.outcome for c in loop.cycles} <= {"promoted", "skipped"}
        # The served generation is the newest committed one, bitwise.
        assert loop.live_generation() == max(loop.committed)
        # Applied interactions were recorded for the freshness metric.
        assert loop.applied_interactions
        assert all(
            status.split("|")[2] in STATUSES
            for status in loop.watch_traces
        )
        world.loop.close()

    def test_consecutive_quarantines_bounded(self, tmp_path):
        # quarantine_limit=2: two consecutive poisons are absorbed, a
        # third consecutive one halts the loop with OnlineError.
        plan = FaultPlan(
            [Fault(step=s, kind="poison_batch") for s in (4, 5, 6)]
        )
        world = build_world(tmp_path, seed=0, plan=plan, config=SMALL)
        with pytest.raises(OnlineError, match="consecutive"):
            world.loop.run(SMALL.num_batches)
        quarantined = [
            b for b in world.loop.batch_outcomes if b.status == "quarantined"
        ]
        assert len(quarantined) == 3
        assert all("OnlineUpdateError" in b.error for b in quarantined)
        world.loop.close()

    def test_interleaved_quarantines_are_absorbed(self, tmp_path):
        # Non-consecutive poisons never trip the bound, however many.
        plan = FaultPlan(
            [Fault(step=s, kind="poison_batch") for s in (4, 6, 8, 10)]
        )
        world = build_world(tmp_path, seed=0, plan=plan, config=SMALL)
        world.loop.run(SMALL.num_batches)
        quarantined = [
            b for b in world.loop.batch_outcomes if b.status == "quarantined"
        ]
        assert len(quarantined) == 4
        world.loop.close()

    def test_loop_config_validation(self, tmp_path):
        world = build_world(tmp_path, seed=0, plan=FaultPlan(), config=SMALL)
        from repro.online import OnlineLoop

        with pytest.raises(ConfigError):
            OnlineLoop(
                world.stream, world.trainer, world.service, commit_every=0
            )
        with pytest.raises(ConfigError):
            OnlineLoop(
                world.stream, world.trainer, world.service,
                quarantine_limit=-1,
            )
        world.loop.close()


# ---------------------------------------------------------------------- #
# chaos candidate
# ---------------------------------------------------------------------- #
class TestChaosCandidate:
    class _Inner:
        generation = 7
        supports_candidates = True

        def sync_index(self, force=False):
            return 7

        def score_candidates(self, user_id, k=None):
            return np.arange(3), np.asarray([3.0, 2.0, 1.0])

        def score_all(self, user_id):
            return np.asarray([3.0, 2.0, 1.0])

    def test_mode_validation(self):
        with pytest.raises(ConfigError, match="regress"):
            ChaosCandidate(self._Inner(), regress="sometimes")

    def test_sync_fail(self):
        chaos = ChaosCandidate(self._Inner(), fail_sync=True)
        with pytest.raises(IndexStaleError):
            chaos.sync_index()

    def test_canary_mode_poisons_immediately(self):
        chaos = ChaosCandidate(self._Inner(), regress="canary")
        __, scores = chaos.score_candidates(0)
        assert np.all(np.isnan(scores))

    def test_late_mode_poisons_only_after_arm(self):
        chaos = ChaosCandidate(self._Inner(), regress="late")
        assert np.all(np.isfinite(chaos.score_all(0)))
        chaos.arm()
        assert np.all(np.isnan(chaos.score_all(0)))
        # Attribute forwarding + pinned generation survive the wrapper.
        assert chaos.generation == 7
        assert chaos.supports_candidates


# ---------------------------------------------------------------------- #
# churn matrix: every fault kind, full safety contract
# ---------------------------------------------------------------------- #
class TestChurnMatrix:
    def test_every_kind_passes_for_seed_zero(self, tmp_path):
        summaries = {}
        for kind in ("none", *ONLINE_FAULT_KINDS):
            cell = run_churn_cell(tmp_path / kind, 0, kind, SMALL)
            assert cell.ok, cell.summary
            assert (cell.subsystem, cell.kind) == ("online", kind)
            summaries[kind] = cell.summary

        def count(kind, field):
            return int(summaries[kind].split(f" {field}=")[1].split()[0])

        assert count("poison_batch", "q") == 2
        assert summaries["commit_crash"].endswith(" CRASHED+RECOVERED")
        assert count("sync_fail", "rejected") >= 1
        assert count("canary_regress", "rejected") >= 1
        assert count("late_regress", "rolled_back") >= 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown online fault kind"):
            default_plan_for("gremlins", SMALL)

    def test_fault_free_replay_is_deterministic(self, tmp_path):
        def trace(run):
            world = build_world(
                tmp_path / run, seed=1, plan=FaultPlan(), config=SMALL
            )
            world.loop.run(SMALL.num_batches)
            out = (
                [b.trace() for b in world.loop.batch_outcomes]
                + [c.trace() for c in world.loop.cycles]
                + list(world.loop.watch_traces)
            )
            world.loop.close()
            return out

        assert trace("a") == trace("b")

    def test_freshness_beats_frozen_baseline(self, tmp_path):
        config = ChurnConfig(num_batches=48)
        world = build_world(tmp_path, seed=0, plan=FaultPlan(), config=config)
        world.loop.run(config.num_batches)
        fresh = freshness_report(world)
        assert fresh["newcomer_users"] > 0
        assert fresh["hit_rate_online"] > fresh["hit_rate_frozen"]
        assert fresh["freshness_uplift"] > 0.2
        world.loop.close()

    def test_rolled_back_generation_is_not_served(self, tmp_path):
        plan = default_plan_for("late_regress", SMALL)
        world = build_world(tmp_path, seed=0, plan=plan, config=SMALL)
        world.loop.run(SMALL.num_batches)
        loop = world.loop
        rolled = [c for c in loop.cycles if c.outcome == "rolled_back"]
        assert len(rolled) == 1
        # The regressed generation was committed (it is durable on disk)
        # but rollback means it never stayed live — and later healthy
        # cycles promoted past it.
        assert rolled[0].generation in loop.committed
        assert loop.live_generation() != rolled[0].generation
        assert "post_promotion_regression" in str(
            world.service.registry.history
        )
        world.loop.close()

    def test_only_servable_generations_keep_their_stores_open(
        self, tmp_path, monkeypatch
    ):
        opened = []
        open_store = MmapShardStore.open

        def recording_open(*args, **kwargs):
            store = open_store(*args, **kwargs)
            if store.mode == "serve":
                opened.append(store)
            return store

        monkeypatch.setattr(MmapShardStore, "open", recording_open)
        plan = FaultPlan(
            [Fault(step=15, kind="sync_fail"), Fault(step=31, kind="late_regress")]
        )
        config = ChurnConfig(num_batches=56)
        world = build_world(tmp_path, seed=0, plan=plan, config=config)
        loop, registry = world.loop, world.service.registry
        for __ in range(config.num_batches):
            cycles = len(loop.cycles)
            loop.run(1)
            if len(loop.cycles) == cycles:
                continue
            still_open = [s for s in opened if not s._closed]
            assert len(still_open) <= 2
            # The live model still serves its committed bytes, bitwise.
            assert _served_bytes(registry.live) == (
                loop.committed[loop.live_generation()]
            )
        outcomes = [c.outcome for c in loop.cycles]
        assert len(outcomes) == 7
        assert outcomes[1] == "rejected" and outcomes[3] == "rolled_back"
        assert loop.cycles[1].detail.startswith("index_sync:")
        # One store per candidate plus the bootstrap's, nearly all closed.
        assert len(opened) == 8
        assert sum(not s._closed for s in opened) == 2
        loop.close()
        assert all(s._closed for s in opened)

    def test_committed_lists_every_generation_but_holds_three(self, tmp_path):
        """Bytes stay only for the live generation, the rollback target
        and the newest; every committed generation stays listed."""
        plan = FaultPlan(
            [Fault(step=15, kind="sync_fail"), Fault(step=31, kind="late_regress")]
        )
        config = ChurnConfig(num_batches=72)
        world = build_world(tmp_path, seed=0, plan=plan, config=config)
        loop, registry = world.loop, world.service.registry
        listed = set(loop.committed)
        for __ in range(config.num_batches):
            cycles = len(loop.cycles)
            loop.run(1)
            if len(loop.cycles) == cycles:
                continue
            listed.add(loop.cycles[-1].generation)
            assert set(loop.committed) == listed
            held = {g for g, data in loop.committed.items() if data is not None}
            live = loop.live_generation()
            servable = {live, max(loop.committed)}
            if registry._previous is not None:
                servable.add(registry._previous[1].generation)
            assert held == servable and len(held) <= 3
            assert _served_bytes(registry.live) == loop.committed[live]
        assert len(loop.cycles) == 9 and len(listed) == 10
        loop.close()


# ---------------------------------------------------------------------- #
# warm index builds on promotion
# ---------------------------------------------------------------------- #
#: The ledger's online world at its smoke size: 2,000 items in 45 IVF
#: lists, 128 candidates, so candidate recall is below 1 and can move.
SMOKE_WORLD = ChurnConfig(
    num_batches=40, commit_every=8, model_dim=32, rows_per_shard=1024,
    k_candidates=128,
    stream=StreamConfig(
        num_users=256, num_items=2_000, warm_users=192, warm_items=1_600,
        session_size=16,
    ),
)


def candidate_recall(model, index, users, k=10):
    """Mean recall@k of ``index``'s candidates against ``model``'s exact
    ranking (the live two-stage model's base)."""
    recalls = []
    for user in users:
        scores = np.asarray(model.score_all(int(user)))
        truth = np.argpartition(-scores, k - 1)[:k]
        query = np.asarray(model.query_vector(int(user)), dtype=np.float32)
        ids = index.search(query, SMOKE_WORLD.k_candidates)
        recalls.append(np.intersect1d(ids, truth).size / k)
    return float(np.mean(recalls))


class TestWarmPromotionBuilds:
    @pytest.mark.parametrize("seed", range(5))
    def test_warm_index_recalls_like_a_cold_build(self, tmp_path, seed):
        tel = Telemetry()
        with activated(tel):
            world = build_world(tmp_path, seed, config=SMOKE_WORLD)
            world.loop.run(SMOKE_WORLD.num_batches)
        builds = [
            (r.attrs["start"], r.attrs["rounds"])
            for r in tel.tracer.records() if r.name == "retrieval/build"
        ]
        promoted = [c for c in world.loop.cycles if c.outcome == "promoted"]
        assert len(promoted) >= 5
        # The bootstrap builds cold; every promotion after it builds warm.
        assert builds == [("cold", 8)] + [("warm", 1)] * len(promoted)

        live = world.service.registry.live
        vectors = np.ascontiguousarray(live.base.item_vectors(), dtype=np.float32)
        cold = IvfIndex(seed=seed).build(vectors, generation=live.generation)
        seen = world.stream.seen_users
        users = np.random.default_rng(seed).choice(
            seen, size=min(200, seen), replace=False
        )
        warm_recall = candidate_recall(live.base, live.index, users)
        cold_recall = candidate_recall(live.base, cold, users)
        assert warm_recall >= cold_recall - 0.05
        world.loop.close()

    def test_candidate_takes_the_index_it_is_given(self, tmp_path):
        world = build_world(tmp_path, seed=0, plan=FaultPlan(), config=SMALL)
        live = world.service.registry.live
        nxt = live.index.successor()
        keep = []
        candidate = make_candidate(
            world.store_dir, world.dataset, world.trainer.num_users,
            world.trainer.num_items, world.bootstrap_generation,
            keep=keep, index=nxt,
        )
        assert candidate.index is nxt
        candidate.sync_index()
        assert candidate.index.is_built
        for store in keep:
            store.close()
        world.loop.close()


# ---------------------------------------------------------------------- #
# the index build overlapped with the commit's IO
# ---------------------------------------------------------------------- #
class FailingCrashIO(ManifestCrashIO):
    """The online world's store IO, failing its next op of kind
    :attr:`fail` with ``OSError``: the fsync of the segment temp or of the
    manifest temp (as an injected ``fsync_fail`` does), or the segment
    rename.
    Records the name of the thread behind every rename."""

    def __init__(self) -> None:
        super().__init__()
        self.fail: str | None = None
        self.rename_threads: list[str] = []
        self._failing_fsyncs: set[int] = set()

    def _do_write(self, step, path, data):
        kind = "manifest" if path.name.startswith("manifest-") else "shard_write"
        if self.fail == kind:
            self.fail = None
            self._failing_fsyncs.add(step)
        super()._do_write(step, path, data)

    def _fsync_file(self, step, fd):
        if step in self._failing_fsyncs:
            self._failing_fsyncs.discard(step)
            raise OSError(f"injected fsync failure at io op {step}")
        super()._fsync_file(step, fd)

    def _do_replace(self, step, tmp, final):
        self.rename_threads.append(threading.current_thread().name)
        if self.fail == "shard_rename" and final.suffix == ".seg":
            self.fail = None
            raise OSError(f"injected rename failure at io op {step}")
        super()._do_replace(step, tmp, final)


class TickingClock(ManualClock):
    """A manual clock that moves one second on every read, so span times
    record the order of every clock read."""

    def __call__(self) -> float:
        self.advance(1.0)
        return super().__call__()


class TestOverlappedCommit:
    """Each cycle builds its index on the loop's thread while the store's
    worker thread writes the commit."""

    def promoted_once(self, tmp_path, io=None):
        world = build_world(tmp_path, seed=0, plan=FaultPlan(), config=SMALL, io=io)
        world.loop.run(SMALL.commit_every)
        assert [c.outcome for c in world.loop.cycles] == ["promoted"]
        return world

    @pytest.mark.parametrize("target", ["shard_write", "shard_rename", "manifest"])
    def test_io_failure_rejects_the_cycle_and_keeps_the_live_model(
        self, tmp_path, target
    ):
        io = FailingCrashIO()
        world = self.promoted_once(tmp_path, io=io)
        loop, store = world.loop, world.trainer.store
        live = world.service.registry.live
        fingerprint, generation = live.index.fingerprint(), store.generation
        before = threading.active_count()
        io.fail = target
        loop.run(SMALL.commit_every)
        assert threading.active_count() == before
        cycle = loop.cycles[-1]
        assert (cycle.outcome, cycle.detail) == (
            "rejected", "commit_aborted:StoreError"
        )
        assert store.generation == generation
        assert store._dirty[ENTITY_TABLE].any()
        assert world.service.registry.live is live
        assert live.index.fingerprint() == fingerprint
        # The kept dirty rows are committed by the next cycle.
        loop.run(SMALL.commit_every)
        assert loop.cycles[-1].outcome == "promoted"
        loop.close()

    def test_commit_crash_on_the_worker_reaches_the_caller(self, tmp_path):
        io = FailingCrashIO()
        world = build_world(
            tmp_path, seed=0, plan=default_plan_for("commit_crash", SMALL),
            config=SMALL, io=io,
        )
        before = threading.active_count()
        with pytest.raises(InjectedCrash, match="manifest rename"):
            world.loop.run(SMALL.num_batches)
        assert threading.active_count() == before
        assert io.rename_threads[-1] == "store-commit"
        world.loop.close()

    def test_build_failure_still_commits_and_rejects_as_index_sync(
        self, tmp_path, monkeypatch
    ):
        world = self.promoted_once(tmp_path)
        loop, store = world.loop, world.trainer.store
        live = world.service.registry.live
        fingerprint, generation = live.index.fingerprint(), store.generation
        builds = []

        def failing_build(index, vectors, generation=None):
            builds.append(generation)
            raise RetrievalError("injected build failure")

        monkeypatch.setattr(IvfIndex, "build", failing_build)
        before = threading.active_count()
        loop.run(SMALL.commit_every)
        monkeypatch.undo()
        assert threading.active_count() == before
        cycle = loop.cycles[-1]
        assert (cycle.outcome, cycle.detail) == (
            "rejected", "index_sync:RetrievalError"
        )
        # Built beside the commit, then once more by the registry's sync.
        assert builds == [generation + 1, generation + 1]
        # The commit itself finished: a new durable generation, bitwise.
        assert store.generation == cycle.generation == generation + 1
        assert not store._dirty[ENTITY_TABLE].any()
        reopened = MmapShardStore.open(world.store_dir, mode="serve")
        assert reopened.generation == generation + 1
        assert (
            reopened.load_table(ENTITY_TABLE).astype("<f4").tobytes()
            == loop.committed[generation + 1]
        )
        reopened.close()
        assert world.service.registry.live is live
        assert live.index.fingerprint() == fingerprint
        loop.close()

    @pytest.mark.parametrize("seed", range(5))
    def test_overlapped_build_is_the_sync_build(self, tmp_path, seed, monkeypatch):
        world = build_world(tmp_path, seed, plan=FaultPlan(), config=SMOKE_WORLD)
        pairs = []

        def checked(*args, index=None, **kwargs):
            candidate = make_candidate(*args, index=index, **kwargs)
            assert candidate.index is index and candidate.index_report() is None
            # The oracle: the same start, built by a forced sync from the
            # candidate's serve view.
            twin = TwoStageRecommender(
                candidate.base, world.loop._successor_index(),
                k_candidates=candidate.k_candidates,
            ).fit(world.dataset)
            twin.sync_index(force=True)
            pairs.append((index.fingerprint(), twin.index.fingerprint()))
            return candidate

        monkeypatch.setattr(loop_module, "make_candidate", checked)
        world.loop.run(SMOKE_WORLD.num_batches)
        promoted = [c for c in world.loop.cycles if c.outcome == "promoted"]
        assert len(pairs) == len(promoted) >= 5
        assert all(ours == oracle for ours, oracle in pairs)
        world.loop.close()

    def test_replayed_span_exports_are_identical(self, tmp_path):
        def spans(run):
            tel = Telemetry(clock=TickingClock())
            world = build_world(
                tmp_path / run, seed=0, plan=FaultPlan(), config=SMALL,
                telemetry=tel,
            )
            with activated(tel):
                world.loop.run(SMALL.num_batches)
            world.loop.close()
            return [r for r in export_records(tel) if r["record"] == "span"]

        first = spans("a")
        assert first == spans("b")
        by_id = {r["span_id"]: r for r in first}

        def ancestors(record):
            names = []
            while record["parent_id"] is not None:
                record = by_id[record["parent_id"]]
                names.append(record["name"])
            return names

        commits = [r for r in first if r["name"] == "store/commit"]
        builds = [r for r in first if r["name"] == "retrieval/build"]
        assert commits and len(builds) == len(commits)
        for record in commits + builds:
            assert "online/promote_cycle" in ancestors(record)
        # Each build ran inside its commit, on the loop's own thread.
        assert all(ancestors(r)[0] == "store/commit" for r in builds)


# ---------------------------------------------------------------------- #
# structured promotion rejections (registry + trace-report surfacing)
# ---------------------------------------------------------------------- #
class TestPromotionRecordStructure:
    class _Good:
        generation = 3

        def score_all(self, user_id):
            return np.arange(10, dtype=np.float64)

    class _SyncBroken(_Good):
        def sync_index(self, force=False):
            raise IndexStaleError("segment vanished")

    class _NaN(_Good):
        generation = 4

        def score_all(self, user_id):
            return np.full(10, np.nan)

    def test_index_sync_rejection_is_structured(self):
        reg = ModelRegistry(10, clock=ManualClock())
        with pytest.raises(PromotionError, match="index sync failed"):
            reg.promote("cand", self._SyncBroken(), canary_users=range(3))
        record = reg.history[-1]
        assert not record.promoted
        assert record.kind == "promote"
        assert record.rejection == "index_sync:IndexStaleError"
        assert record.generation == 3
        assert "[index_sync:IndexStaleError]" in record.describe()

    def test_canary_rejection_is_structured(self):
        reg = ModelRegistry(10, clock=ManualClock())
        reg.promote("good", self._Good(), canary_users=range(3))
        with pytest.raises(PromotionError, match="canary"):
            reg.promote("bad", self._NaN(), canary_users=range(3))
        record = reg.history[-1]
        assert record.rejection == "canary"
        assert record.reports  # per-user score reports ride along
        assert reg.live_name == "good"

    def test_rollback_leaves_a_structured_record(self):
        reg = ModelRegistry(10, clock=ManualClock())
        reg.promote("a", self._Good(), canary_users=range(3))
        reg.promote("b", self._Good(), canary_users=range(3))
        assert reg.rollback(cause="post_promotion_regression") == "a"
        record = reg.history[-1]
        assert record.kind == "rollback"
        assert record.rejection == "rollback:post_promotion_regression"
        assert "ROLLED BACK" in record.describe()
        assert "[rollback:post_promotion_regression]" in record.describe()

    def test_trace_report_tallies_break_down_by_cause(self, tmp_path):
        clock = ManualClock()
        tel = Telemetry(clock=clock)
        reg = ModelRegistry(10, clock=clock, telemetry=tel)
        reg.promote("good", self._Good(), canary_users=range(3))
        with pytest.raises(PromotionError):
            reg.promote("sync", self._SyncBroken(), canary_users=range(3))
        with pytest.raises(PromotionError):
            reg.promote("nan", self._NaN(), canary_users=range(3))
        reg.promote("next", self._Good(), canary_users=range(3))
        reg.rollback(cause="post_promotion_regression")
        path = tmp_path / "trace.jsonl"
        write_jsonl(path, tel)
        text = render_trace_report(read_jsonl(path))
        # The outcome tally splits rejections by their structured cause.
        assert "rejected[index_sync:IndexStaleError]" in text
        assert "rejected[canary]" in text
        assert "rolled_back[rollback:post_promotion_regression]" in text
        assert "promoted=2" in text
