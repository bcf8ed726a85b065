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
from repro.store import (
    MmapShardStore,
    ShardInfo,
    StoredEmbeddingRecommender,
    inspect_store,
    verify_record,
)
from repro.runtime.faults import (
    IO_FAULT_KINDS,
    Fault,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
)
from repro.store.harness import (
    ScenarioConfig,
    crash_cells,
    make_corrupted_store,
    run_scenario,
)
from repro.store.io import FaultingStoreIO, RecordingStoreIO, StoreIO
from repro.store.manifest import load_manifest
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
        store_dir = make_corrupted_store(tmp_path, seed=0)
        from repro.store import inspect_store

        report = inspect_store(store_dir)
        by_gen = {g.generation: g.ok for g in report.generations}
        assert by_gen[2] is False
        assert by_gen[1] is True
        assert report.current == 1


# ---------------------------------------------------------------------- #
# group commit: one segment holds every dirty shard, then the manifest
# ---------------------------------------------------------------------- #
#: The four shards of :func:`two_tables`, in segment order.
GROUP = [("a", 0), ("a", 1), ("b", 0), ("b", 1)]


def commit_ops(generation):
    """The op log of one commit: its segment, then its manifest."""
    segment = f"seg-g{generation:08d}.seg"
    manifest = f"manifest-g{generation:08d}.json"
    return [
        ("write", segment + ".tmp"), ("rename", segment),
        ("write", manifest + ".tmp"), ("rename", manifest),
    ]


def records(directory, generation):
    """``{(table, shard): ShardInfo}`` of a generation's manifest."""
    manifest = load_manifest(Path(directory) / f"manifest-g{generation:08d}.json")
    return {
        (name, s): ShardInfo.from_json(shard)
        for name, spec in manifest["tables"].items()
        for s, shard in enumerate(spec["shards"])
    }


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
        assert ops == commit_ops(1)
        # The segment holds every shard of both tables, in order, aligned.
        first = records(tmp_path, 1)
        assert list(first) == GROUP
        assert {r.file for r in first.values()} == {"seg-g00000001.seg"}
        offsets = [r.offset for r in first.values()]
        assert offsets[0] == 0 and offsets == sorted(set(offsets))
        assert all(o % 64 == 0 for o in offsets)
        # An incremental commit is a segment of one record.
        a[3] = 9.0
        store.mark_dirty("a", [3])
        start = io.num_ops
        assert store.commit() == 2
        assert [(op.kind, Path(op.path).name) for op in io.op_log[start:]] == (
            commit_ops(2)
        )
        second = records(tmp_path, 2)
        assert (second["a", 1].file, second["a", 1].offset) == ("seg-g00000002.seg", 0)
        assert {k: v for k, v in second.items() if k != ("a", 1)} == {
            k: v for k, v in first.items() if k != ("a", 1)
        }
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
        segment, manifest = "seg-g00000001.seg", "manifest-g00000001.json"
        assert io.events == [
            ("write", segment + ".tmp"), ("fsync", segment + ".tmp"),
            ("rename", segment), ("fsync_dir", "shards"),
            ("write", manifest + ".tmp"), ("fsync", manifest + ".tmp"),
            ("rename", manifest), ("fsync_dir", tmp_path.name),
        ]
        store.close()

    @pytest.mark.parametrize("shard", range(len(GROUP)))
    def test_fsync_fail_at_any_shard_of_a_group_aborts(self, tmp_path, shard):
        """A group of shards ``GROUP[:shard + 1]``: ``fsync_fail`` at its
        segment, then at its manifest, aborts with the dirty masks set."""
        # Creation is ops 0-1 and the first commit ops 2-5.  The second
        # commit's segment write is op 6; its retry's manifest write, op 9.
        injector = FaultInjector(FaultPlan([
            Fault(step=6, kind="fsync_fail"), Fault(step=9, kind="fsync_fail"),
        ]))
        store, a, b = two_tables(tmp_path, FaultingStoreIO(injector))
        assert store.commit() == 1
        tables = {"a": a, "b": b}
        for name, s in GROUP[: shard + 1]:
            tables[name][2 * s] += 1.0
            store.mark_dirty(name, [2 * s])
        dirty = {name: mask.copy() for name, mask in store._dirty.items()}
        shards_dir = tmp_path / "shards"
        # Aborted at the segment: its temp only.  Aborted at the manifest:
        # the segment renamed (an orphan) and the manifest's temp.
        for files, temps in (
            (["seg-g00000001.seg", "seg-g00000002.seg.tmp"], []),
            (["seg-g00000001.seg", "seg-g00000002.seg"],
             ["manifest-g00000002.json.tmp"]),
        ):
            with pytest.raises(StoreError, match="fsync"):
                store.commit()
            assert store.generation == 1
            for name, mask in dirty.items():
                assert (store._dirty[name] == mask).all()
            assert sorted(p.name for p in shards_dir.iterdir()) == files
            assert sorted(p.name for p in tmp_path.glob("*.tmp")) == temps
            reopened = MmapShardStore.open(tmp_path, mode="serve")
            assert reopened.generation == 1
            reopened.close()
        assert [f.kind for f in injector.injected] == ["fsync_fail"] * 2
        assert store.commit() == 2  # the retry succeeds past the planned faults
        assert len(records(tmp_path, 2)) == len(GROUP)
        assert sum(r.file == "seg-g00000002.seg" for r in records(tmp_path, 2).values()) == shard + 1
        np.testing.assert_array_equal(store.load_table("a"), a)
        np.testing.assert_array_equal(store.load_table("b"), b)
        store.close()


# ---------------------------------------------------------------------- #
# segments: one file per commit, shared by later generations record by record
# ---------------------------------------------------------------------- #
def table_bytes(store):
    return {name: store.load_table(name).astype("<f4").tobytes()
            for name in store.table_names()}


def rot(directory, info, dim):
    """Flip the last payload byte of the record ``info`` names."""
    path = Path(directory) / "shards" / info.file
    blob = bytearray(path.read_bytes())
    __, payload = verify_record(blob, info, dim=dim)
    blob[payload + info.rows * dim * 4 - 1] ^= 0xFF
    path.write_bytes(bytes(blob))


class TestSegments:
    def test_any_dirty_set_commits_one_segment_then_the_manifest(self, tmp_path):
        """Whatever shards of whichever tables are dirty, a commit's op log
        is the segment's write and rename, then the manifest's, and the
        segment holds exactly the dirty shards' records."""
        io = RecordingStoreIO()
        store, a, b = two_tables(tmp_path, io)
        tables = {"a": a, "b": b}
        assert store.commit() == 1
        for generation, mask in enumerate(range(1, 2 ** len(GROUP)), start=2):
            dirty = [g for i, g in enumerate(GROUP) if mask >> i & 1]
            for name, s in dirty:
                tables[name][2 * s] += 1.0
                store.mark_dirty(name, [2 * s])
            start = io.num_ops
            assert store.commit() == generation
            ops = [(op.kind, Path(op.path).name) for op in io.op_log[start:]]
            assert ops == commit_ops(generation)
            segment = f"seg-g{generation:08d}.seg"
            written = {k: r for k, r in records(tmp_path, generation).items()
                       if r.file == segment}
            assert list(written) == dirty
            assert [r.offset for r in written.values()][0] == 0
            assert all(r.offset % 64 == 0 for r in written.values())
        reopened = MmapShardStore.open(tmp_path, mode="serve")
        for name, values in tables.items():
            assert reopened.table(name).to_array().tobytes() == (
                values.astype("<f4").tobytes()
            )
        reopened.close()
        store.close()

    def test_torn_segment_write_recovers_the_previous_generation(self, tmp_path):
        # Creation is ops 0-1, the first commit ops 2-5; op 6 is the
        # second commit's segment write, torn halfway through its records.
        injector = FaultInjector(FaultPlan([Fault(step=6, kind="torn_write")]))
        store, a, b = two_tables(tmp_path, FaultingStoreIO(injector))
        assert store.commit() == 1
        first = table_bytes(store)
        a[:] += 1.0
        b[:] += 1.0
        store.mark_dirty("a")
        store.mark_dirty("b")
        with pytest.raises(InjectedCrash, match="torn write"):
            store.commit()
        # Half of a segment as large as generation 1's reached the disk.
        torn = tmp_path / "shards" / "seg-g00000002.seg.tmp"
        whole = (tmp_path / "shards" / "seg-g00000001.seg").stat().st_size
        assert torn.stat().st_size == whole // 2
        reopened = MmapShardStore.open(tmp_path, mode="train")
        assert reopened.generation == 1
        assert table_bytes(reopened) == first
        reopened.close()
        assert not torn.exists()
        assert (tmp_path / "quarantine" / torn.name).is_file()

    def test_rotten_record_in_a_shared_segment(self, tmp_path, capsys):
        """A record only generation 1 uses rots in a segment whose other
        records generation 2 still references: generation 1 is broken,
        and repair quarantines its manifest but keeps the segment."""
        from repro.__main__ import main

        store, a, __ = two_tables(tmp_path, StoreIO())
        assert store.commit() == 1
        a[0] = 7.0
        store.mark_dirty("a", [0])
        assert store.commit() == 2
        second = table_bytes(store)
        store.close()
        rotten = records(tmp_path, 1)["a", 0]
        shared = records(tmp_path, 2)
        assert shared["a", 0].file == "seg-g00000002.seg"
        assert {shared[k].file for k in GROUP[1:]} == {rotten.file}
        rot(tmp_path, rotten, dim=2)

        report = inspect_store(tmp_path)
        by_gen = {g.generation: g for g in report.generations}
        assert [(s.file, s.offset) for s in by_gen[1].bad_shards] == [
            (rotten.file, rotten.offset)
        ]
        assert by_gen[2].ok and report.current == 2
        with pytest.raises(SystemExit, match="BROKEN") as broken:
            main(["store-verify", str(tmp_path)])
        assert f"{rotten.record}: " in str(broken.value)
        assert main(["store-verify", str(tmp_path), "--repair"]) == 0
        out = capsys.readouterr().out
        assert "quarantined manifest-g00000001.json" in out
        assert f"quarantined {rotten.file}" not in out
        assert sorted(p.name for p in (tmp_path / "shards").iterdir()) == [
            "seg-g00000001.seg", "seg-g00000002.seg",
        ]
        assert main(["store-verify", str(tmp_path)]) == 0
        reopened = MmapShardStore.open(tmp_path, mode="serve")
        assert reopened.generation == 2
        assert {name: reopened.table(name).to_array().tobytes()
                for name in reopened.table_names()} == second
        reopened.close()


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
        assert plain.num_ops == recording.num_ops == len(recording.op_log) == 10
        assert [op.index for op in recording.op_log] == list(range(10))
        assert vars(plain) == {"_next_index": 10}  # no per-op state

    def test_load_table_opens_each_shard_once(self, tmp_path, monkeypatch):
        import builtins

        import repro.store.shard as shard_module

        store = MmapShardStore.create(tmp_path, rows_per_shard=2, io=StoreIO())
        values = np.random.default_rng(3).standard_normal((8, 3))
        store.register("t", values)
        store.commit()
        values[7] = 0.5
        store.mark_dirty("t", [7])
        store.commit()
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(Path(file).name)
            return builtins.open(file, *args, **kwargs)

        monkeypatch.setattr(shard_module, "open", counting_open, raising=False)
        loaded = store.load_table("t")
        # Four records in two segments: each segment is opened once.
        assert sorted(opened) == ["seg-g00000001.seg", "seg-g00000002.seg"]
        expected = values.astype(np.float32).astype(np.float64)
        assert loaded.tobytes() == expected.tobytes()
        store.close()

    def test_load_table_still_refuses_a_shard_the_manifest_disowns(self, tmp_path):
        store = MmapShardStore.create(tmp_path, rows_per_shard=2, io=StoreIO())
        store.register("t", np.ones((4, 2)))
        store.commit()
        # A valid record, wrong rows: shard 0's record over shard 1's.
        first, second = records(tmp_path, 1)["t", 0], records(tmp_path, 1)["t", 1]
        path = tmp_path / "shards" / first.file
        blob = bytearray(path.read_bytes())
        size = second.offset - first.offset
        blob[second.offset : second.offset + size] = blob[first.offset : second.offset]
        path.write_bytes(bytes(blob))
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
        store = MmapShardStore.open(scenario.store_dir, mode="train", generation=gen)
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
        store_dir = make_corrupted_store(tmp_path, seed=0)
        from repro.store import repair_store

        report, actions = repair_store(store_dir)
        assert report.current == 1
        assert any("quarantined" in a for a in actions)
        store = MmapShardStore.open(store_dir, mode="serve")
        assert store.generation == 1
        assert store.table("entity").to_array().shape[0] == ScenarioConfig().num_entities
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

        store_dir = make_corrupted_store(tmp_path, seed=0)
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
