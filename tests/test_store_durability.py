"""Durability harness + serving integration tests for `repro.store`.

The headline invariant under test: however a crash or corruption lands,
re-opening the store yields a state bitwise equal to exactly one
committed generation — old or new, never a hybrid — and the serving
stack keeps answering with typed outcomes while the store underneath it
is broken.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.clock import ManualClock
from repro.core.exceptions import StoreCorruptionError, StoreError
from repro.data import MOVIE_SCHEMA, generate_dataset
from repro.kg.triples import TripleStore
from repro.kge.translational import TransE
from repro.models.baselines import MostPopular
from repro.serving import RecommenderService, ServeRequest
from repro.store import MmapShardStore, StoredEmbeddingRecommender
from repro.runtime.faults import IO_FAULT_KINDS, Fault, FaultInjector, FaultPlan
from repro.store.harness import (
    ScenarioConfig,
    crash_cells,
    make_corrupted_store,
    run_scenario,
)
from repro.store.io import FaultingStoreIO, RecordingStoreIO, StoreIO
from repro.telemetry import Telemetry

SMALL = ScenarioConfig(num_entities=6, num_triples=12, dim=3, epochs=2,
                       batch_size=6, rows_per_shard=3)


# ---------------------------------------------------------------------- #
# the crash matrix
# ---------------------------------------------------------------------- #
class TestCrashMatrix:
    def test_scenario_is_deterministic(self, tmp_path):
        a = run_scenario(tmp_path / "a", seed=0, config=SMALL)
        b = run_scenario(tmp_path / "b", seed=0, config=SMALL)
        assert a.history == b.history
        assert a.generations == b.generations == (0, 1, 2)
        assert a.num_ops == b.num_ops > 0

    def test_checkpoint_writes_go_through_the_store_io(self, tmp_path):
        io = RecordingStoreIO()
        run_scenario(tmp_path, seed=0, io=io, config=SMALL)
        ckpt = [(op.kind, Path(op.path).name) for op in io.op_log if "ckpt-" in op.path]
        assert ckpt == [
            ("write", "ckpt-00000000.npz.tmp"), ("rename", "ckpt-00000000.npz"),
            ("write", "ckpt-00000001.npz.tmp"), ("rename", "ckpt-00000001.npz"),
        ]

    def test_every_fault_kind_at_every_op(self, tmp_path):
        """Old-or-new, never hybrid, at every (op, kind) cell of seed 0:
        shard writes, manifest writes, checkpoint writes, both rename sides."""
        cells = crash_cells(0, tmp_path)
        assert [c.kind for c in cells] == list(IO_FAULT_KINDS)
        for cell in cells:
            assert cell.ok, cell.problems
            assert cell.fired == (cell.kind,)
        # Sanity: the faults actually surfaced (crashes or aborted commits).
        assert any(", 0 crashed," not in c.summary for c in cells)

    def test_fsync_failure_is_retryable(self, tmp_path):
        """An aborted commit (fsync error) keeps dirty rows for retry."""
        from repro.runtime.faults import Fault, FaultInjector, FaultPlan
        from repro.store.io import FaultingStoreIO

        injector = FaultInjector(FaultPlan([Fault(step=2, kind="fsync_fail")]))
        store = MmapShardStore.create(
            tmp_path, rows_per_shard=2, io=FaultingStoreIO(injector)
        )
        arr = store.register("t", np.ones((4, 2)))
        with pytest.raises(StoreError):
            store.commit()
        assert store._dirty["t"].sum() == 4  # nothing silently dropped
        assert store.commit() == 1  # retry succeeds past the planned fault
        np.testing.assert_array_equal(store.load_table("t"), arr)
        store.close()

    def test_make_corrupted_store_breaks_only_newest(self, tmp_path):
        store_dir = make_corrupted_store(tmp_path, seed=0, config=SMALL)
        from repro.store import inspect_store

        report = inspect_store(store_dir)
        by_gen = {g.generation: g.ok for g in report.generations}
        assert by_gen[2] is False
        assert by_gen[1] is True
        assert report.current == 1


# ---------------------------------------------------------------------- #
# group commit: every shard temp, then every rename, then the manifest
# ---------------------------------------------------------------------- #
#: The four shards of :func:`two_tables`' first commit, in write order.
GROUP = [
    "a-g00000001-s00000.shard", "a-g00000001-s00001.shard",
    "b-g00000001-s00000.shard", "b-g00000001-s00001.shard",
]


def two_tables(directory, io):
    """A train-mode store over tables ``a`` (4x2) and ``b`` (3x2), two
    rows per shard; its creation takes IO ops 0 and 1."""
    store = MmapShardStore.create(directory, rows_per_shard=2, io=io)
    a = store.register("a", np.arange(8.0).reshape(4, 2))
    b = store.register("b", -np.arange(6.0).reshape(3, 2))
    return store, a, b


class TestGroupCommit:
    def test_op_log_is_writes_then_renames_then_manifest(self, tmp_path):
        io = RecordingStoreIO()
        store, a, __ = two_tables(tmp_path, io)
        start = io.num_ops
        assert store.commit() == 1
        ops = [(op.kind, Path(op.path).name) for op in io.op_log[start:]]
        assert ops == (
            [("write", f + ".tmp") for f in GROUP]
            + [("rename", f) for f in GROUP]
            + [("write", "manifest-g00000001.json.tmp"),
               ("rename", "manifest-g00000001.json")]
        )
        # An incremental commit is a group of one.
        a[3] = 9.0
        store.mark_dirty("a", [3])
        start = io.num_ops
        assert store.commit() == 2
        assert [(op.kind, Path(op.path).name) for op in io.op_log[start:]] == [
            ("write", "a-g00000002-s00001.shard.tmp"),
            ("rename", "a-g00000002-s00001.shard"),
            ("write", "manifest-g00000002.json.tmp"),
            ("rename", "manifest-g00000002.json"),
        ]
        store.close()

    def test_writes_then_fsyncs_then_renames_then_one_directory_fsync(
        self, tmp_path
    ):
        class Recording(RecordingStoreIO):
            def __init__(self):
                super().__init__()
                self.events = []

            def _do_write(self, step, path, data):
                self.events.append(("write", path.name))
                super()._do_write(step, path, data)

            def _fsync_file(self, step, fd):
                self.events.append(("fsync", Path(self.op_log[step].path).name))
                super()._fsync_file(step, fd)

            def _do_replace(self, step, tmp, final):
                self.events.append(("rename", final.name))
                super()._do_replace(step, tmp, final)

            def _fsync_dir(self, directory):
                self.events.append(("fsync_dir", directory.name))
                super()._fsync_dir(directory)

        io = Recording()
        store, __, __ = two_tables(tmp_path, io)
        io.events.clear()
        store.commit()
        manifest = "manifest-g00000001.json"
        assert io.events == (
            [("write", f + ".tmp") for f in GROUP]
            + [("fsync", f + ".tmp") for f in GROUP]
            + [("rename", f) for f in GROUP]
            + [("fsync_dir", "shards")]
            + [("write", manifest + ".tmp"), ("fsync", manifest + ".tmp"),
               ("rename", manifest), ("fsync_dir", tmp_path.name)]
        )
        store.close()

    @pytest.mark.parametrize("shard", range(len(GROUP)))
    def test_fsync_fail_at_any_shard_of_a_group_aborts(self, tmp_path, shard):
        injector = FaultInjector(FaultPlan([Fault(step=2 + shard, kind="fsync_fail")]))
        store, a, b = two_tables(tmp_path, FaultingStoreIO(injector))
        with pytest.raises(StoreError, match="fsync"):
            store.commit()
        assert [f.kind for f in injector.injected] == ["fsync_fail"]
        assert store.generation == 0
        assert store._dirty["a"].sum() == 4 and store._dirty["b"].sum() == 3
        # Every temp was written before the first fsync, and no rename was
        # issued: the aborted group left temp files only.
        shards_dir = tmp_path / "shards"
        assert not list(shards_dir.glob("*.shard"))
        assert sorted(p.name for p in shards_dir.glob("*.tmp")) == [
            f + ".tmp" for f in GROUP
        ]
        reopened = MmapShardStore.open(tmp_path, mode="serve")
        assert reopened.generation == 0
        reopened.close()
        assert store.commit() == 1  # the retry succeeds past the planned fault
        np.testing.assert_array_equal(store.load_table("a"), a)
        np.testing.assert_array_equal(store.load_table("b"), b)
        store.close()


# ---------------------------------------------------------------------- #
# bookkeeping: the plain IO counts ops only; a table load reads each shard once
# ---------------------------------------------------------------------- #
class TestStoreBookkeeping:
    def test_plain_io_counts_ops_and_keeps_no_log(self, tmp_path):
        plain, recording = StoreIO(), RecordingStoreIO()
        for directory, io in ((tmp_path / "plain", plain), (tmp_path / "rec", recording)):
            store, a, __ = two_tables(directory, io)
            store.commit()
            a[0] = 5.0
            store.mark_dirty("a", [0])
            store.commit()
            store.close()
        assert plain.num_ops == recording.num_ops == len(recording.op_log) == 16
        assert [op.index for op in recording.op_log] == list(range(16))
        assert vars(plain) == {"_next_index": 16}  # no per-op state

    def test_load_table_opens_each_shard_once(self, tmp_path, monkeypatch):
        import builtins

        import repro.store.shard as shard_module

        store = MmapShardStore.create(tmp_path, rows_per_shard=2, io=StoreIO())
        values = np.random.default_rng(3).standard_normal((8, 3))
        store.register("t", values)
        store.commit()
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(Path(file).name)
            return builtins.open(file, *args, **kwargs)

        monkeypatch.setattr(shard_module, "open", counting_open, raising=False)
        loaded = store.load_table("t")
        assert sorted(opened) == [f"t-g00000001-s{i:05d}.shard" for i in range(4)]
        expected = values.astype(np.float32).astype(np.float64)
        assert loaded.tobytes() == expected.tobytes()
        store.close()

    def test_load_table_still_refuses_a_shard_the_manifest_disowns(self, tmp_path):
        store = MmapShardStore.create(tmp_path, rows_per_shard=2, io=StoreIO())
        store.register("t", np.ones((4, 2)))
        store.commit()
        shards = sorted((tmp_path / "shards").glob("t-*.shard"))
        shards[1].write_bytes(shards[0].read_bytes())  # valid file, wrong rows
        with pytest.raises(StoreCorruptionError, match="disagrees with manifest"):
            store.load_table("t")
        store.close()


# ---------------------------------------------------------------------- #
# property: random corruption never yields a hybrid-generation open
# ---------------------------------------------------------------------- #
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@pytest.fixture(scope="module")
def pristine_store(tmp_path_factory):
    """One committed 3-generation store plus its per-generation fingerprints."""
    workdir = tmp_path_factory.mktemp("pristine")
    scenario = run_scenario(workdir, seed=0, config=SMALL)
    references = {}
    for gen in scenario.generations:
        store = MmapShardStore.open(
            scenario.store_dir, mode="train", generation=gen, quarantine=False
        )
        references[gen] = {
            name: store.load_table(name).astype("<f4").tobytes()
            for name in store.table_names()
        }
        store.close()
    files = sorted(
        p.relative_to(scenario.store_dir)
        for p in scenario.store_dir.rglob("*")
        if p.is_file()
    )
    return scenario.store_dir, references, files


class TestCorruptionProperty:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        file_pick=st.integers(min_value=0, max_value=10_000),
        offset_frac=st.floats(min_value=0.0, max_value=1.0),
        mutation=st.sampled_from(["flip", "truncate", "garbage", "delete"]),
        flip_mask=st.integers(min_value=1, max_value=255),
    )
    def test_single_file_corruption_never_hybrid(
        self, pristine_store, file_pick, offset_frac, mutation, flip_mask
    ):
        src, references, files = pristine_store
        target_rel = files[file_pick % len(files)]
        with tempfile.TemporaryDirectory(prefix="corrupt-prop-") as tmp:
            work = Path(tmp) / "store"
            shutil.copytree(src, work)
            target = work / target_rel
            blob = bytearray(target.read_bytes())
            offset = min(int(offset_frac * len(blob)), len(blob) - 1)
            if mutation == "flip":
                blob[offset] ^= flip_mask
                target.write_bytes(bytes(blob))
            elif mutation == "truncate":
                target.write_bytes(bytes(blob[:offset]))
            elif mutation == "garbage":
                target.write_bytes(b"\xde\xad\xbe\xef" * 8)
            else:
                target.unlink()
            try:
                store = MmapShardStore.open(work, mode="train")
            except StoreError:
                return  # refusing to open is always safe
            try:
                gen = store.generation
                state = {
                    name: store.load_table(name).astype("<f4").tobytes()
                    for name in store.table_names()
                }
            finally:
                store.close()
            assert gen in references, (
                f"recovered uncommitted generation {gen} after {mutation} "
                f"of {target_rel}"
            )
            assert state == references[gen], (
                f"hybrid state at generation {gen} after {mutation} "
                f"of {target_rel}"
            )


# ---------------------------------------------------------------------- #
# store-backed serving: hot swap without copies, typed degradation
# ---------------------------------------------------------------------- #
def train_store(workdir, num_users, num_items, generations=2, seed=0):
    """Train a small TransE over a lifted user+item entity space."""
    num_entities = num_users + num_items
    rng = np.random.default_rng(seed)
    triples = TripleStore(
        rng.integers(num_users, size=30),
        np.zeros(30, dtype=np.int64),
        rng.integers(num_users, num_entities, size=30),
        num_entities=num_entities,
        num_relations=1,
    )
    store = MmapShardStore.create(workdir, rows_per_shard=4, seed=seed)
    model = TransE(num_entities, 1, dim=4, seed=seed, store=store)
    for __ in range(generations):
        model.fit(triples, epochs=1, batch_size=8, seed=seed)
        store.commit()
    store.close()


@pytest.fixture()
def served_store(tmp_path):
    dataset = generate_dataset(MOVIE_SCHEMA, num_users=8, num_items=10, seed=0)
    train_store(tmp_path / "store", dataset.num_users, dataset.num_items)
    store = MmapShardStore.open(tmp_path / "store", mode="serve")
    model = StoredEmbeddingRecommender(
        store,
        user_entities=np.arange(dataset.num_users),
        item_entities=np.arange(
            dataset.num_users, dataset.num_users + dataset.num_items
        ),
    ).fit(dataset)
    yield dataset, store, model
    store.close()


class TestStoredServing:
    def test_scores_match_tables(self, served_store):
        dataset, store, model = served_store
        scores = model.score_all(3)
        entities = store.table("entity").to_array().astype(np.float64)
        expected = entities[8:18] @ entities[3]
        np.testing.assert_allclose(scores, expected)

    def test_promote_records_generation_and_moves_no_arrays(self, served_store):
        dataset, store, model = served_store
        table = store.table("entity")
        service = RecommenderService(
            dataset,
            primary=("stored", model),
            fallbacks=[("popular", MostPopular().fit(dataset))],
            clock=ManualClock(),
        )
        record = service.registry.history[-1]
        assert record.promoted and record.generation == store.generation
        assert "store generation" in record.describe()
        # The hot swap re-pointed nothing: the served table object is the
        # exact object from before promotion, holding the same memmaps.
        assert store.table("entity") is table
        older = MmapShardStore.open(store.directory, mode="serve", generation=1)
        candidate = StoredEmbeddingRecommender(
            older, model.user_entities, model.item_entities
        ).fit(dataset)
        record2 = service.promote("stored-g1", candidate)
        assert record2.generation == 1
        older.close()

    def test_broken_store_degrades_typed_never_raises(self, served_store):
        dataset, store, model = served_store
        service = RecommenderService(
            dataset,
            primary=("stored", model),
            fallbacks=[("popular", MostPopular().fit(dataset))],
            clock=ManualClock(),
        )
        assert service.serve(ServeRequest(user_id=2, k=3)).status == "ok"
        store.close()  # every subsequent gather raises StoreError
        for user in range(dataset.num_users):
            response = service.serve(ServeRequest(user_id=user, k=3))
            assert response.status == "degraded"
            assert response.model in ("popular", "static")
            assert response.items  # still a real recommendation list

    def test_corrupted_newest_generation_still_serves(self, tmp_path):
        """store-verify --repair flow, end to end through the service."""
        store_dir = make_corrupted_store(tmp_path, seed=0, config=SMALL)
        from repro.store import repair_store

        report, actions = repair_store(store_dir)
        assert report.current == 1
        assert any("quarantined" in a for a in actions)
        store = MmapShardStore.open(store_dir, mode="serve")
        assert store.generation == 1
        assert store.table("entity").to_array().shape[0] == SMALL.num_entities
        store.close()


class TestStoreVerifyCLI:
    """`python -m repro store-verify` exit semantics, end to end."""

    def test_healthy_store_passes(self, tmp_path, capsys):
        from repro.__main__ import main

        run_scenario(tmp_path, seed=0, config=SMALL)
        assert main(["store-verify", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "current generation: 2" in out and "BROKEN" not in out

    def test_corrupt_store_fails_then_repairs(self, tmp_path, capsys):
        from repro.__main__ import main

        store_dir = make_corrupted_store(tmp_path, seed=0, config=SMALL)
        with pytest.raises(SystemExit) as excinfo:
            main(["store-verify", str(store_dir)])
        assert "BROKEN" in str(excinfo.value)
        assert "--repair" in str(excinfo.value)
        assert main(["store-verify", str(store_dir), "--repair"]) == 0
        assert "quarantined" in capsys.readouterr().out
        assert main(["store-verify", str(store_dir)]) == 0  # clean now

    def test_not_a_store_fails(self, tmp_path):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match="FAILED"):
            main(["store-verify", str(tmp_path / "nothing-here")])


class TestSeededCanary:
    """The canary batch is the lowest-id prefix, recorded on every promotion."""

    def make(self, dataset, **kwargs):
        return RecommenderService(
            dataset,
            primary=("popular", MostPopular().fit(dataset)),
            clock=ManualClock(),
            **kwargs,
        )

    def test_default_keeps_lowest_id_prefix(self):
        for num_users, canary in ((20, tuple(range(8))), (5, tuple(range(5)))):
            dataset = generate_dataset(
                MOVIE_SCHEMA, num_users=num_users, num_items=15, seed=0
            )
            record = self.make(dataset).registry.history[-1]
            assert record.canary_users == canary  # 8 lowest ids, capped

    def test_canary_attributes_on_promote_span(self):
        dataset = generate_dataset(MOVIE_SCHEMA, num_users=12, num_items=9, seed=0)
        telemetry = Telemetry()
        service = self.make(dataset, telemetry=telemetry)
        spans = [s for s in telemetry.tracer.records() if s.name == "serve/promote"]
        assert spans, "promotion emitted no serve/promote span"
        attrs = spans[-1].attrs
        assert tuple(attrs["canary_users"]) == service.registry.history[-1].canary_users
        assert attrs["outcome"] == "promoted"
