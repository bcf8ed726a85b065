"""Unit tests for the sharded embedding store (format, stores, checkpoints)."""

import builtins
import json
import shutil
import threading
import traceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import ManualClock
from repro.core.exceptions import (
    CheckpointError,
    StoreCorruptionError,
    StoreError,
    TrainingDivergedError,
)
from repro.kg.triples import TripleStore
from repro.kge.translational import TransE
from repro.runtime import TrainingRuntime
from repro.runtime.checkpoint import Checkpointer, load_checkpoint, save_checkpoint
from repro.runtime.faults import Fault, FaultInjector, FaultPlan, InjectedCrash
from repro.store import (
    MmapShardStore,
    ShardInfo,
    StoredEmbeddingRecommender,
    StoreIO,
    inspect_store,
    map_segment,
    record_values,
    verify_record,
)
from repro.store import shard as shard_module
from repro.store.io import FaultingStoreIO
from repro.store.manifest import (
    build_manifest,
    load_manifest,
    manifest_bytes,
    parse_manifest,
    write_manifest,
)
from repro.telemetry import Telemetry, activated


def shard_file(path, table, row_start, values, seed=None):
    """Encode ``values`` as the one-record file ``path``; returns its ShardInfo."""
    info, data = shard_module.encode_shard(path.name, table, row_start, values, seed=seed)
    path.write_bytes(data)
    return info


def verify_file(path, info, dim=None):
    """``verify_record`` of ``info``'s record in the file ``path``."""
    return verify_record(map_segment(path), info, dim=dim)


def rot_record(store_dir, info, dim):
    """Flip the last payload byte of the record ``info`` names."""
    path = Path(store_dir) / "shards" / info.file
    blob = bytearray(path.read_bytes())
    __, payload = verify_record(blob, info, dim=dim)
    blob[payload + info.rows * dim * 4 - 1] ^= 0xFF
    path.write_bytes(bytes(blob))


def record_infos(store_dir, generation, table):
    """The ShardInfo of every record ``table`` references at ``generation``."""
    manifest = load_manifest(Path(store_dir) / f"manifest-g{generation:08d}.json")
    return [ShardInfo.from_json(s) for s in manifest["tables"][table]["shards"]]


def toy_triples(seed=0, num_entities=8, num_relations=2, n=24):
    rng = np.random.default_rng(seed)
    return TripleStore(
        rng.integers(num_entities, size=n),
        rng.integers(num_relations, size=n),
        rng.integers(num_entities, size=n),
        num_entities=num_entities,
        num_relations=num_relations,
    )


# ---------------------------------------------------------------------- #
# shard format
# ---------------------------------------------------------------------- #
class TestShardFormat:
    def test_round_trip(self, tmp_path):
        values = np.arange(12, dtype=np.float64).reshape(4, 3)
        info = shard_file(tmp_path / "t-s0.shard", "t", 4, values)
        assert info.rows == 4 and info.row_start == 4 and info.offset == 0
        segment = map_segment(tmp_path / "t-s0.shard")
        header, offset = verify_record(segment, info, dim=3)
        assert header["table"] == "t"
        loaded = record_values(segment, offset, 4, 3)
        np.testing.assert_array_equal(loaded, values.astype(np.float32))

    def test_bitrot_detected(self, tmp_path):
        path = tmp_path / "t-s0.shard"
        info = shard_file(path, "t", 0, np.ones((4, 3)))
        blob = bytearray(path.read_bytes())
        blob[-2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreCorruptionError, match="bitrot"):
            verify_file(path, info)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "t-s0.shard"
        info = shard_file(path, "t", 0, np.ones((4, 3)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])  # tear off the payload tail
        with pytest.raises(StoreCorruptionError, match="torn"):
            verify_file(path, info)
        path.write_bytes(blob[: len(blob) // 4])  # tear mid-header
        with pytest.raises(StoreCorruptionError, match="truncated"):
            verify_file(path, info)
        path.write_bytes(b"")  # nothing reached the file
        with pytest.raises(StoreCorruptionError, match="truncated"):
            verify_file(path, info)

    def test_header_number_flipped_to_infinity(self, tmp_path):
        # One flipped digit can turn a header number into a float exponent
        # that parses as inf: corruption, not an OverflowError.
        path = tmp_path / "t-s0.shard"
        info = shard_file(path, "t", 0, np.ones((4, 3)))
        blob = path.read_bytes()
        digits = str(info.crc32).encode()
        inf = b"9e" + b"9" * (len(digits) - 2)
        path.write_bytes(blob.replace(b'"crc32": ' + digits, b'"crc32": ' + inf, 1))
        with pytest.raises(StoreCorruptionError, match="non-numeric"):
            verify_file(path, info)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t-s0.shard"
        path.write_bytes(b"NOTSHARD" + b"\x00" * 64)
        info = ShardInfo(file=path.name, row_start=0, rows=4, crc32=0)
        with pytest.raises(StoreCorruptionError, match="magic"):
            verify_file(path, info)

    def test_manifest_cross_check(self, tmp_path):
        path = tmp_path / "t-s0.shard"
        info = shard_file(path, "t", 0, np.ones((4, 3)))
        wrong = ShardInfo(file=info.file, row_start=4, rows=4, crc32=info.crc32)
        with pytest.raises(StoreCorruptionError, match="disagrees"):
            verify_file(path, wrong)


#: A shard the unpadded writer (payload at byte ``12 + len(JSON)``) wrote:
#: table "entity", rows 10-14, dim 3, seed 7, payload at byte 131.
UNPADDED_SHARD = Path(__file__).parent / "fixtures" / "shard_unpadded_v1.shard"
UNPADDED_VALUES = np.arange(15, dtype=np.float32).reshape(5, 3) * 0.25 - 1.0
UNPADDED_INFO = ShardInfo(
    file=UNPADDED_SHARD.name, row_start=10, rows=5, crc32=2719079516
)


class TestAlignedPayload:
    @given(
        rows=st.integers(1, 9),
        dim=st.integers(1, 9),
        row_start=st.integers(0, 10**9),
        table=st.text("abcdefgh_.-0123456789", min_size=1, max_size=40),
        seed=st.none() | st.integers(-(10**12), 10**12),
    )
    @settings(max_examples=40, deadline=None)
    def test_payload_starts_on_a_64_byte_boundary(
        self, tmp_path_factory, rows, dim, row_start, table, seed
    ):
        path = tmp_path_factory.mktemp("aligned") / "t.shard"
        values = np.arange(rows * dim, dtype=np.float32).reshape(rows, dim)
        info = shard_file(path, table, row_start, values, seed=seed)
        segment = map_segment(path)
        header, offset = verify_record(segment, info, dim=dim)
        assert offset % 64 == 0
        # The padding is trailing spaces inside the counted header: a
        # plain JSON parse of the declared header bytes reads it.
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[8:12], "little")
        assert 12 + header_len == offset
        assert json.loads(blob[12:offset]) == header
        assert blob[offset:] == values.tobytes()
        mapped = record_values(segment, offset, rows, dim)
        assert mapped.flags.aligned and mapped.ctypes.data % 64 == 0
        assert mapped.tobytes() == values.tobytes()

    def test_serve_views_are_aligned(self, tmp_path):
        store = MmapShardStore.create(tmp_path, rows_per_shard=3)
        store.register("t", np.arange(33, dtype=np.float64).reshape(11, 3))
        store.commit()
        store.close()
        served = MmapShardStore.open(tmp_path, mode="serve")
        shards = served.table("t")._require()
        assert len(shards) == 4
        assert all(s.flags.aligned and s.ctypes.data % 64 == 0 for s in shards)
        served.close()

    def test_padding_leaves_payload_crc_and_header_fields_alone(self, tmp_path):
        """Only the header's trailing spaces differ from the unpadded file."""
        old = UNPADDED_SHARD.read_bytes()
        old_header, old_offset = verify_file(UNPADDED_SHARD, UNPADDED_INFO)
        path = tmp_path / UNPADDED_SHARD.name
        info = shard_file(path, "entity", 10, UNPADDED_VALUES, seed=7)
        new = path.read_bytes()
        header, offset = verify_file(path, info)
        assert header == old_header and info.crc32 == old_header["crc32"]
        assert new[offset:] == old[old_offset:]
        assert new[12:offset] == old[12:old_offset] + b" " * (offset - old_offset)

    def test_unpadded_shard_verifies_loads_and_maps_bitwise(self):
        segment = map_segment(UNPADDED_SHARD)
        __, offset = verify_record(segment, UNPADDED_INFO, dim=3)
        assert offset == 131  # the old layout: unaligned
        mapped = record_values(segment, offset, 5, 3)
        assert mapped.tobytes() == UNPADDED_VALUES.tobytes()
        assert not mapped.flags.aligned
        __, offset = verify_record(UNPADDED_SHARD.read_bytes(), UNPADDED_INFO, dim=3)
        assert offset == 131  # the same record verifies from plain bytes

    def test_store_mixing_unpadded_and_padded_shards(self, tmp_path):
        """A generation whose last shard predates the padding opens in
        serve mode and serves exactly its bytes beside padded shards."""
        values = np.arange(45, dtype=np.float32).reshape(15, 3)
        values[10:] = UNPADDED_VALUES
        store = MmapShardStore.create(tmp_path, rows_per_shard=5, seed=7)
        store.register("entity", values.astype(np.float64))
        assert store.commit() == 1
        store.close()
        # Same rows, same payload, same CRC: only the header layout
        # differs.  Point the manifest's last shard at the old file.
        shutil.copy(UNPADDED_SHARD, tmp_path / "shards" / UNPADDED_SHARD.name)
        path = tmp_path / "manifest-g00000001.json"
        manifest = load_manifest(path)
        manifest["tables"]["entity"]["shards"][2] = UNPADDED_INFO.to_json()
        path.write_bytes(manifest_bytes(manifest))
        served = MmapShardStore.open(tmp_path, mode="serve")
        assert served.generation == 1
        view = served.table("entity")
        assert [s.flags.aligned for s in view._require()] == [True, True, False]
        assert view.to_array().tobytes() == values.tobytes()
        rows = [14, 0, 10, 7, 12]
        assert view.gather(rows).tobytes() == values[rows].tobytes()
        assert view.row(11).tobytes() == values[11].tobytes()
        served.close()
        trained = MmapShardStore.open(tmp_path, mode="train")
        loaded = trained.load_table("entity").astype(np.float32)
        assert loaded.tobytes() == values.tobytes()
        trained.close()


class TestSchemaOneStore:
    """A store of one-record shard files under schema-1 manifests (no
    ``offset``) opens, serves, verifies and repairs through the reader
    segments use."""

    def build(self, directory):
        """Generation 0 (empty) and generation 1 (table ``entity``, 15 x 3
        over three files, the last one the unpadded fixture), schema 1."""
        values = np.arange(45, dtype=np.float32).reshape(15, 3)
        values[10:] = UNPADDED_VALUES
        (directory / "shards").mkdir(parents=True)
        infos = [
            shard_file(
                directory / "shards" / f"entity-g00000001-s{s:05d}.shard",
                "entity", 5 * s, values[5 * s : 5 * s + 5], seed=7,
            )
            for s in range(2)
        ]
        shutil.copy(UNPADDED_SHARD, directory / "shards" / UNPADDED_SHARD.name)
        infos.append(UNPADDED_INFO)
        entries = [
            {k: v for k, v in info.to_json().items() if k != "offset"}
            for info in infos
        ]
        tables = {"entity": {
            "rows": 15, "dim": 3, "dtype": "<f4", "rows_per_shard": 5,
            "shards": entries,
        }}
        for generation, parent, spec in ((0, None, {}), (1, 0, tables)):
            manifest = {
                "schema": 1, "generation": generation, "parent": parent,
                "tag": "", "seed": 7, "tables": spec,
            }
            (directory / f"manifest-g{generation:08d}.json").write_bytes(
                manifest_bytes(manifest)
            )
        return values

    def test_opens_serves_verifies_and_repairs(self, tmp_path, capsys):
        from repro.__main__ import main

        values = self.build(tmp_path)
        served = MmapShardStore.open(tmp_path, mode="serve")
        assert served.generation == 1
        view = served.table("entity")
        assert [s.flags.aligned for s in view._require()] == [True, True, False]
        assert view.to_array().tobytes() == values.tobytes()
        rows = [14, 0, 10, 7, 12]
        assert view.gather(rows).tobytes() == values[rows].tobytes()
        served.close()
        assert main(["store-verify", str(tmp_path)]) == 0
        # A train-mode warm start reads the schema-1 records bitwise, and
        # the next commit writes schema 2 beside them.
        store = MmapShardStore.open(tmp_path, mode="train")
        arr = store.register("entity", np.zeros((15, 3)))
        assert arr.astype(np.float32).tobytes() == values.tobytes()
        arr[0] = 9.0
        store.mark_dirty("entity", [0])
        assert store.commit() == 2
        store.close()
        manifest = load_manifest(tmp_path / "manifest-g00000002.json")
        assert manifest["schema"] == 2
        records = record_infos(tmp_path, 2, "entity")
        assert (records[0].file, records[0].offset) == ("seg-g00000002.seg", 0)
        assert records[1:] == record_infos(tmp_path, 1, "entity")[1:]
        assert [r.offset for r in records[1:]] == [0, 0]
        assert main(["store-verify", str(tmp_path)]) == 0
        # Rot the schema-2 generation: repair falls back to schema 1 and
        # keeps every one-record file it references.
        rot_record(tmp_path, records[0], dim=3)
        with pytest.raises(SystemExit, match="BROKEN") as broken:
            main(["store-verify", str(tmp_path)])
        assert "seg-g00000002.seg@0: " in str(broken.value)
        capsys.readouterr()
        assert main(["store-verify", str(tmp_path), "--repair"]) == 0
        out = capsys.readouterr().out
        assert "quarantined manifest-g00000002.json" in out
        assert "quarantined seg-g00000002.seg" in out
        assert sorted(p.name for p in (tmp_path / "shards").iterdir()) == sorted(
            r.file for r in record_infos(tmp_path, 1, "entity")
        )
        served = MmapShardStore.open(tmp_path, mode="serve")
        assert served.generation == 1
        assert served.table("entity").to_array().tobytes() == values.tobytes()
        served.close()

    def test_unknown_schema_is_refused(self, tmp_path):
        self.build(tmp_path)
        path = tmp_path / "manifest-g00000001.json"
        manifest = load_manifest(path)
        manifest["schema"] = 3
        path.write_bytes(manifest_bytes(manifest))
        with pytest.raises(StoreCorruptionError, match="unsupported manifest schema 3"):
            load_manifest(path)


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = build_manifest(3, {}, parent=2, tag="test", seed=7)
        path = write_manifest(StoreIO(), tmp_path, manifest)
        loaded = load_manifest(path)
        assert loaded["generation"] == 3
        assert loaded["parent"] == 2
        assert loaded["seed"] == 7

    def test_self_checksum_catches_tamper(self, tmp_path):
        manifest = build_manifest(1, {}, tag="x")
        data = manifest_bytes(manifest)
        tampered = data.replace(b'"tag": "x"', b'"tag": "y"')
        assert tampered != data
        with pytest.raises(StoreCorruptionError, match="checksum"):
            parse_manifest(tampered)

    @pytest.mark.parametrize("crc", [b"28e9208543", b"1e999", b'"12"', b"null"])
    def test_corrupt_checksum_value_is_a_mismatch(self, crc):
        # A flipped digit can turn the stored checksum into a float
        # exponent (1e999 parses as inf) or another JSON type.
        data = manifest_bytes(build_manifest(1, {}, tag="x"))
        head, __, tail = data.partition(b'"crc32": ')
        tampered = head + b'"crc32": ' + crc + tail[tail.index(b","):]
        with pytest.raises(StoreCorruptionError, match="checksum"):
            parse_manifest(tampered)

    def test_filename_generation_mismatch(self, tmp_path):
        manifest = build_manifest(5, {})
        (tmp_path / "manifest-g00000004.json").write_bytes(manifest_bytes(manifest))
        with pytest.raises(StoreCorruptionError, match="filename generation"):
            load_manifest(tmp_path / "manifest-g00000004.json")


# ---------------------------------------------------------------------- #
# MmapShardStore
# ---------------------------------------------------------------------- #
class TestMmapStoreTraining:
    def test_store_backed_fit_is_bitwise_the_storeless_fit(self, tmp_path):
        """The store only observes training: same losses, same arrays."""
        triples = toy_triples()
        plain = TransE(8, 2, dim=4, seed=0)
        assert plain.store is None
        backed = TransE(8, 2, dim=4, seed=0, store=MmapShardStore.create(tmp_path))
        h1 = backed.fit(triples, epochs=2, batch_size=8, seed=0)
        h2 = plain.fit(triples, epochs=2, batch_size=8, seed=0)
        assert h1 == h2
        np.testing.assert_array_equal(backed.entity_embeddings(), plain.entity_embeddings())
        np.testing.assert_array_equal(
            backed.relation_embeddings(), plain.relation_embeddings()
        )
        backed.store.close()

    def test_commit_writes_only_dirty_shards(self, tmp_path):
        store = MmapShardStore.create(tmp_path, rows_per_shard=2)
        arr = store.register("t", np.zeros((6, 3)))
        gen1 = store.commit()  # everything dirty on first commit
        assert gen1 == 1
        files_after_gen1 = set(p.name for p in (tmp_path / "shards").iterdir())
        assert files_after_gen1 == {"seg-g00000001.seg"}
        gen1_records = record_infos(tmp_path, 1, "t")
        # One segment holds all three records, each 64-byte aligned.
        assert [r.file for r in gen1_records] == ["seg-g00000001.seg"] * 3
        offsets = [r.offset for r in gen1_records]
        assert offsets[0] == 0 and offsets == sorted(set(offsets))
        assert all(o % 64 == 0 for o in offsets)
        record_size = offsets[1]
        arr[5, 0] = 1.0
        store.mark_dirty("t", [5])
        gen2 = store.commit()
        assert gen2 == 2
        new_files = set(
            p.name for p in (tmp_path / "shards").iterdir()
        ) - files_after_gen1
        assert new_files == {"seg-g00000002.seg"}
        # The new segment holds exactly the one dirty shard's record.
        assert (tmp_path / "shards" / "seg-g00000002.seg").stat().st_size == record_size
        gen2_records = record_infos(tmp_path, 2, "t")
        # shards 0 and 1 carried over by reference from generation 1
        assert gen2_records[:2] == gen1_records[:2]
        assert (gen2_records[2].file, gen2_records[2].offset) == ("seg-g00000002.seg", 0)
        store.close()

    def test_commit_with_nothing_dirty_is_noop(self, tmp_path):
        store = MmapShardStore.create(tmp_path)
        store.register("t", np.zeros((4, 2)))
        assert store.commit() == 1
        assert store.commit() == 1  # no dirty rows -> same generation
        store.close()

    def test_reopen_warm_starts_registered_arrays(self, tmp_path):
        store = MmapShardStore.create(tmp_path, rows_per_shard=2)
        arr = store.register("t", np.arange(8, dtype=np.float64).reshape(4, 2))
        store.commit()
        store.close()
        reopened = MmapShardStore.open(tmp_path, mode="train")
        fresh = reopened.register("t", np.zeros((4, 2)))
        np.testing.assert_array_equal(fresh, arr.astype(np.float32))
        reopened.close()

    def test_mmap_training_close_to_dense(self, tmp_path):
        """Store-backed training matches dense within float32 round-trips.

        In a single run nothing is ever read back from disk, so the match
        is exact; the float32 tolerance documented in docs/storage.md
        applies to values *reloaded* across commits (see
        test_reopen_warm_starts_registered_arrays).
        """
        triples = toy_triples()
        dense = TransE(8, 2, dim=4, seed=0)
        dense.fit(triples, epochs=2, batch_size=8, seed=0)
        store = MmapShardStore.create(tmp_path, rows_per_shard=4)
        stored = TransE(8, 2, dim=4, seed=0, store=store)
        stored.fit(triples, epochs=2, batch_size=8, seed=0)
        np.testing.assert_allclose(
            stored.entity_embeddings(), dense.entity_embeddings(),
            rtol=0, atol=1e-6,
        )
        store.close()

    def test_load_table_round_trips_committed_state(self, tmp_path):
        store = MmapShardStore.create(tmp_path, rows_per_shard=2)
        arr = store.register("t", np.random.default_rng(0).normal(size=(5, 3)))
        store.commit()
        loaded = store.load_table("t")
        np.testing.assert_array_equal(loaded, arr.astype(np.float32))
        store.close()

    def test_register_shape_mismatch(self, tmp_path):
        store = MmapShardStore.create(tmp_path)
        store.register("t", np.zeros((4, 2)))
        store.commit()
        store.close()
        reopened = MmapShardStore.open(tmp_path, mode="train")
        with pytest.raises(StoreError, match="shape"):
            reopened.register("t", np.zeros((5, 2)))
        reopened.close()


class GatedIO(StoreIO):
    """A :class:`StoreIO` whose writes wait for :attr:`gate` and which
    records the name of the thread behind every write and rename."""

    def __init__(self) -> None:
        super().__init__()
        self.gate = threading.Event()
        self.gate.set()
        self.threads: set[str] = set()

    def _do_write(self, step, path, data):
        self.threads.add(threading.current_thread().name)
        assert self.gate.wait(timeout=30)
        super()._do_write(step, path, data)

    def _do_replace(self, step, tmp, final):
        self.threads.add(threading.current_thread().name)
        super()._do_replace(step, tmp, final)


class ShardRenameFailIO(StoreIO):
    """A :class:`StoreIO` whose segment rename raises ``OSError``."""

    def _do_replace(self, step, tmp, final):
        if final.suffix == ".seg":
            raise OSError(f"injected rename failure at io op {step}")
        super()._do_replace(step, tmp, final)


class TestCommitWorker:
    """The commit's IO group runs on one worker thread, joined before
    ``commit`` returns or raises; ``overlap`` runs on the caller."""

    def gated_store(self, tmp_path):
        io = GatedIO()
        store = MmapShardStore.create(tmp_path, rows_per_shard=2, io=io)
        arr = store.register("t", np.arange(8.0).reshape(4, 2))
        io.threads.clear()
        return store, arr, io

    def test_overlap_runs_beside_exactly_one_worker(self, tmp_path):
        store, arr, io = self.gated_store(tmp_path)
        io.gate.clear()  # the worker cannot finish before overlap runs
        before = threading.active_count()
        calls = []

        def overlap(generation):
            calls.append((generation, threading.active_count()))
            io.gate.set()

        assert store.commit(overlap=overlap) == 1
        assert calls == [(1, before + 1)]
        assert io.threads == {"store-commit"}
        assert threading.active_count() == before
        np.testing.assert_array_equal(
            store.load_table("t"), arr.astype(np.float32)
        )
        store.close()

    def test_no_op_commit_starts_no_worker_and_calls_nothing(self, tmp_path):
        store, __, io = self.gated_store(tmp_path)
        store.commit()
        io.threads.clear()
        calls = []
        assert store.commit(overlap=calls.append) == 1
        assert calls == [] and io.threads == set()
        store.close()

    def test_overlap_exception_is_raised_after_a_consistent_commit(self, tmp_path):
        store, arr, __ = self.gated_store(tmp_path)
        before = threading.active_count()

        def overlap(generation):
            raise ValueError("overlapped work failed")

        with pytest.raises(ValueError, match="overlapped work failed"):
            store.commit(overlap=overlap)
        assert threading.active_count() == before
        assert store.generation == 1 and not store._dirty["t"].any()
        reopened = MmapShardStore.open(tmp_path, mode="serve")
        assert reopened.generation == 1
        np.testing.assert_array_equal(
            reopened.load_table("t"), arr.astype(np.float32)
        )
        reopened.close()
        store.close()

    @pytest.mark.parametrize("target", ["shard_write", "shard_rename", "manifest"])
    def test_io_failure_on_the_worker_aborts_on_the_caller(self, tmp_path, target):
        # Creation takes ops 0-1; the commit writes its segment at op 2,
        # renames it at op 3 and writes the manifest at op 4.
        if target == "shard_rename":
            io = ShardRenameFailIO()
        else:
            step = 2 if target == "shard_write" else 4
            io = FaultingStoreIO(
                FaultInjector(FaultPlan([Fault(step=step, kind="fsync_fail")]))
            )
        store = MmapShardStore.create(tmp_path, rows_per_shard=2, io=io)
        store.register("t", np.arange(8.0).reshape(4, 2))
        tel = Telemetry(clock=ManualClock())
        before = threading.active_count()
        with activated(tel), pytest.raises(StoreError, match="injected"):
            store.commit(overlap=lambda generation: tel.begin("overlap"))
        assert threading.active_count() == before
        assert store.generation == 0 and store._dirty["t"].all()
        spans = {r.name: r for r in tel.tracer.records()}
        assert spans["store/commit"].attrs["outcome"] == "aborted"
        reopened = MmapShardStore.open(tmp_path, mode="serve")
        assert reopened.generation == 0
        reopened.close()
        store.close()

    def test_injected_crash_on_the_worker_reaches_the_caller(self, tmp_path):
        io = FaultingStoreIO(
            FaultInjector(FaultPlan([Fault(step=3, kind="crash_before_rename")]))
        )
        store = MmapShardStore.create(tmp_path, rows_per_shard=2, io=io)
        store.register("t", np.arange(8.0).reshape(4, 2))
        before = threading.active_count()
        with pytest.raises(InjectedCrash) as info:
            store.commit()
        assert threading.active_count() == before
        # Raised inside the worker's IO group, re-raised on this thread.
        assert "write_group" in {
            frame.name for frame in traceback.extract_tb(info.value.__traceback__)
        }
        reopened = MmapShardStore.open(tmp_path, mode="serve")
        assert reopened.generation == 0
        reopened.close()

    def test_spans_stay_on_the_calling_thread(self, tmp_path):
        store, __, __ = self.gated_store(tmp_path)
        tel = Telemetry(clock=ManualClock())

        def overlap(generation):
            tel.end(tel.begin("overlap", generation=generation))

        with activated(tel):
            store.commit(overlap=overlap)
        records = {r.name: r for r in tel.tracer.records()}
        assert set(records) == {"store/commit", "overlap"}
        assert records["store/commit"].parent_id is None
        assert records["overlap"].parent_id == records["store/commit"].span_id
        assert records["overlap"].attrs["generation"] == 1
        store.close()


class TestMmapStoreServing:
    def make_store(self, tmp_path, rows=6, dim=3, rows_per_shard=2):
        store = MmapShardStore.create(tmp_path, rows_per_shard=rows_per_shard)
        arr = store.register(
            "t", np.arange(rows * dim, dtype=np.float64).reshape(rows, dim)
        )
        store.commit()
        arr[0] = -1.0
        store.mark_dirty("t", [0])
        store.commit()
        store.close()
        return arr

    def test_sharded_table_gather_and_matmul(self, tmp_path):
        arr = self.make_store(tmp_path)
        store = MmapShardStore.open(tmp_path, mode="serve")
        table = store.table("t")
        np.testing.assert_array_equal(
            table.gather([0, 3, 5]), arr[[0, 3, 5]].astype(np.float32)
        )
        np.testing.assert_array_equal(table[1], arr[1].astype(np.float32))
        v = np.ones(3, dtype=np.float32)
        np.testing.assert_allclose(table @ v, arr.astype(np.float32) @ v)
        np.testing.assert_array_equal(table.to_array(), arr.astype(np.float32))
        assert table.shape == (6, 3)
        store.close()

    def test_serve_mode_is_read_only(self, tmp_path):
        self.make_store(tmp_path)
        store = MmapShardStore.open(tmp_path, mode="serve")
        with pytest.raises(StoreError, match="serve mode"):
            store.register("t", np.zeros((6, 3)))
        with pytest.raises(StoreError, match="serve mode"):
            store.commit()
        store.close()

    def test_closed_store_raises(self, tmp_path):
        self.make_store(tmp_path)
        store = MmapShardStore.open(tmp_path, mode="serve")
        table = store.table("t")
        store.close()
        with pytest.raises(StoreError, match="closed"):
            table.gather([0])
        with pytest.raises(StoreError, match="closed"):
            store.table("t")

    def test_out_of_range_gather(self, tmp_path):
        self.make_store(tmp_path)
        store = MmapShardStore.open(tmp_path, mode="serve")
        with pytest.raises(StoreError, match="out of range"):
            store.table("t").gather([99])
        store.close()

    def test_open_reads_each_shard_once_then_maps_it(self, tmp_path, monkeypatch):
        """A pinned serve-mode open parses every record header once and
        opens and maps each segment once; the views slice those maps."""
        self.make_store(tmp_path)
        opened, parsed, maps = [], [], []
        real_open, real_parse = builtins.open, shard_module._parse_header
        real_mmap = shard_module.mmap.mmap

        def counting_open(file, *args, **kwargs):
            if "shards" in Path(str(file)).parts:
                opened.append(Path(file).name)
            return real_open(file, *args, **kwargs)

        def counting_parse(name, data, start):
            parsed.append(name)
            return real_parse(name, data, start)

        def counting_mmap(*args, **kwargs):
            maps.append(args)
            return real_mmap(*args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(shard_module, "_parse_header", counting_parse)
        monkeypatch.setattr(shard_module.mmap, "mmap", counting_mmap)
        store = MmapShardStore.open(tmp_path, mode="serve", generation=2)
        monkeypatch.undo()
        records = record_infos(tmp_path, 2, "t")
        files = sorted({r.file for r in records})
        # Generation 2 rewrote shard 0 and keeps shards 1-2 in generation 1's segment.
        assert files == ["seg-g00000001.seg", "seg-g00000002.seg"]
        assert sorted(parsed) == sorted(r.record for r in records)
        assert sorted(opened) == files and len(maps) == len(files)
        # Records of one segment are views of its one map.
        shards = store.table("t")._require()
        assert shards[1].base is shards[2].base is not shards[0].base
        np.testing.assert_array_equal(
            store.table("t").to_array(), store.load_table("t").astype(np.float32)
        )
        store.close()

    def test_row_is_bitwise_the_gathered_row(self, tmp_path):
        self.make_store(tmp_path, rows=7, rows_per_shard=3)
        store = MmapShardStore.open(tmp_path, mode="serve")
        table = store.table("t")
        for i in range(7):
            assert table.row(i).tobytes() == table.gather([i])[0].tobytes()
        for bad in (-1, 7):
            with pytest.raises(StoreError, match="out of range"):
                table.row(bad)
        store.close()

    def test_query_vector_is_bitwise_the_gathered_row(self, tmp_path):
        self.make_store(tmp_path, rows=7, rows_per_shard=3)
        store = MmapShardStore.open(tmp_path, mode="serve")
        users = np.array([6, 0, 3, 4])
        model = StoredEmbeddingRecommender(
            store, user_entities=users, item_entities=np.array([1, 2, 5]),
            entity_table="t",
        )
        for user, row in enumerate(users):
            query = model.query_vector(user)
            expected = store.table("t").gather([row])[0].astype(np.float64)
            assert query.dtype == np.float64
            assert query.tobytes() == expected.tobytes()
        broken = StoredEmbeddingRecommender(
            store, user_entities=np.array([7]), item_entities=np.array([1]),
            entity_table="t",
        )
        with pytest.raises(StoreError, match="out of range"):
            broken.query_vector(0)
        store.close()


def mask_loop_gather(table, rows) -> np.ndarray:
    """``ShardedTable.gather`` as it was: one boolean mask per shard."""
    shards = table._shards
    rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
    out = np.empty((rows.size, table.dim), dtype=np.float32)
    shard_of = rows // table.rows_per_shard
    local = rows - shard_of * table.rows_per_shard
    for s in np.unique(shard_of):
        mask = shard_of == s
        out[mask] = shards[int(s)][local[mask]]
    return out


@pytest.fixture(scope="module")
def gather_table(tmp_path_factory):
    """An 11-row table over four shards of three rows (the last one short)."""
    directory = tmp_path_factory.mktemp("gather")
    store = MmapShardStore.create(directory, rows_per_shard=3)
    rng = np.random.default_rng(3)
    store.register("t", rng.standard_normal((11, 4)))
    store.commit()
    store.close()
    store = MmapShardStore.open(directory, mode="serve")
    yield store.table("t")
    store.close()


class TestGatherOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.integers(0, 10), max_size=30),
        ordered=st.booleans(),
    )
    def test_gather_is_bitwise_the_mask_loop(self, gather_table, rows, ordered):
        """Unsorted rows, duplicates, empty, one row, and runs that
        straddle shard boundaries all copy exactly the mask loop's bytes."""
        rows = sorted(rows) if ordered else rows
        got = gather_table.gather(rows)
        assert got.dtype == np.float32 and got.shape == (len(rows), 4)
        assert got.tobytes() == mask_loop_gather(gather_table, rows).tobytes()

    @pytest.mark.parametrize(
        "rows",
        [[], [5], [2, 3], [10, 0, 10, 0], [8, 9, 10], [10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0]],
    )
    def test_named_rows(self, gather_table, rows):
        got = gather_table.gather(rows)
        assert got.tobytes() == mask_loop_gather(gather_table, rows).tobytes()

    @pytest.mark.parametrize("rows", [[-1], [11], [3, 11, 0], [0, -5]])
    def test_out_of_range_raises(self, gather_table, rows):
        with pytest.raises(StoreError, match="out of range"):
            gather_table.gather(rows)


class TestRecovery:
    def test_corrupt_newest_falls_back(self, tmp_path):
        store = MmapShardStore.create(tmp_path, rows_per_shard=2)
        arr = store.register("t", np.zeros((4, 2)))
        store.commit()
        gen1 = store.load_table("t").copy()
        arr[:] = 7.0
        store.mark_dirty("t")
        store.commit()
        store.close()
        # rot every generation-2 shard record
        for info in record_infos(tmp_path, 2, "t"):
            assert info.file == "seg-g00000002.seg"
            rot_record(tmp_path, info, dim=2)
        recovered = MmapShardStore.open(tmp_path, mode="train")
        assert recovered.generation == 1
        np.testing.assert_array_equal(recovered.load_table("t"), gen1)
        recovered.close()
        # the broken generation was quarantined, not deleted
        report = inspect_store(tmp_path)
        assert any("manifest-g00000002" in q for q in report.quarantined)

    @pytest.mark.parametrize("mode", ("train", "serve"))
    def test_pinned_open_moves_no_file(self, tmp_path, mode):
        """A pinned open (rollback views, readers beside a live writer)
        leaves a temp file and a rotten newer generation in place; the
        next unpinned open quarantines both."""
        store = MmapShardStore.create(tmp_path, rows_per_shard=2)
        arr = store.register("t", np.zeros((4, 2)))
        store.commit()
        arr[:] = 7.0
        store.mark_dirty("t")
        store.commit()
        store.close()
        for info in record_infos(tmp_path, 2, "t"):
            rot_record(tmp_path, info, dim=2)
        debris = tmp_path / "shards" / "seg-g00000003.seg.tmp"
        debris.write_bytes(b"torn")

        def files():
            return sorted(p for p in tmp_path.rglob("*") if p.is_file())

        before = files()
        pinned = MmapShardStore.open(tmp_path, mode=mode, generation=1)
        assert pinned.generation == 1
        pinned.close()
        assert files() == before
        assert not (tmp_path / "quarantine").exists()

        MmapShardStore.open(tmp_path, mode=mode).close()
        assert not debris.exists()
        assert set(inspect_store(tmp_path).quarantined) == {
            debris.name, "manifest-g00000002.json", "seg-g00000002.seg",
        }

    def test_open_nothing_consistent_raises(self, tmp_path):
        store = MmapShardStore.create(tmp_path)
        store.register("t", np.zeros((2, 2)))
        store.commit()
        store.close()
        for path in tmp_path.glob("manifest-g*.json"):
            path.write_bytes(b"garbage")
        with pytest.raises(StoreError, match="no consistent generation"):
            MmapShardStore.open(tmp_path)

    def test_open_non_store_raises(self, tmp_path):
        with pytest.raises(StoreError, match="not an embedding store"):
            MmapShardStore.open(tmp_path / "nope")


# ---------------------------------------------------------------------- #
# checkpoint integration
# ---------------------------------------------------------------------- #
class FakeParam:
    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)


class TestCheckpointChecksums:
    def test_checksums_written_and_verified(self, tmp_path):
        path = tmp_path / "c.npz"
        save_checkpoint(path, [FakeParam(np.ones((3, 2)))], step=1)
        ckpt = load_checkpoint(path)
        assert ckpt.step == 1
        np.testing.assert_array_equal(ckpt.params[0], np.ones((3, 2)))

    def test_corrupt_array_rejected(self, tmp_path):
        """A flipped parameter byte fails the v2 content checksum."""
        import json

        path = tmp_path / "c.npz"
        save_checkpoint(path, [FakeParam(np.ones((3, 2)))], step=1)
        # rewrite the param entry with different bytes but identical shape
        with np.load(path) as archive:
            arrays = {k: archive[k].copy() for k in archive.files}
        arrays["param__0000"][0, 0] = 5.0
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_skip_to_newest_loadable_still_works(self, tmp_path):
        ckpt = Checkpointer(tmp_path, keep=3)
        params = [FakeParam(np.zeros((2, 2)))]
        ckpt.save(0, params)
        params[0].data[:] = 1.0
        newest = ckpt.save(1, params)
        newest.write_bytes(b"truncated")
        loaded = ckpt.restore_latest(params)
        assert loaded.step == 0
        np.testing.assert_array_equal(params[0].data, np.zeros((2, 2)))

    @staticmethod
    def _rewrite_meta(path, edit):
        import json

        with np.load(path) as archive:
            arrays = {k: archive[k].copy() for k in archive.files}
        meta = json.loads(bytes(arrays["__meta__"].tobytes()).decode())
        edit(meta)
        arrays["__meta__"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)

    def test_version_1_archives_are_rejected(self, tmp_path):
        """Pre-checksum archives would load unverified: refuse them."""
        path = tmp_path / "c.npz"
        save_checkpoint(path, [FakeParam(np.ones((2, 2)))], step=3)

        def to_version_1(meta):
            meta["version"] = 1
            del meta["checksums"]

        self._rewrite_meta(path, to_version_1)
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
            load_checkpoint(path)

    def test_array_without_checksum_rejected(self, tmp_path):
        path = tmp_path / "c.npz"
        params = [FakeParam(np.ones((2, 2))), FakeParam(np.zeros(3))]
        save_checkpoint(path, params, step=3)
        self._rewrite_meta(path, lambda meta: meta["checksums"].pop("param__0001"))
        with pytest.raises(CheckpointError, match="no checksum.*param__0001"):
            load_checkpoint(path)


class TestStoreBackedCheckpoints:
    def test_store_params_not_in_npz(self, tmp_path):
        store = MmapShardStore.create(tmp_path / "store", rows_per_shard=2)
        owned = store.register("emb", np.ones((4, 2)))
        extra_param = FakeParam(np.full((2, 2), 3.0))
        params = [FakeParam(owned), extra_param]
        params[0].data = owned  # identity: the store owns this buffer
        path = tmp_path / "c.npz"
        save_checkpoint(path, params, step=0, store=store)
        with np.load(path) as archive:
            keys = set(archive.files)
        assert "param__0001" in keys and "param__0000" not in keys
        ckpt = load_checkpoint(path)
        assert ckpt.store_params == {0: "emb"}
        assert ckpt.store_generation == 1
        store.close()

    def test_restore_reads_table_at_pinned_generation(self, tmp_path):
        store = MmapShardStore.create(tmp_path / "store", rows_per_shard=2)
        owned = store.register("emb", np.ones((4, 2)))
        params = [FakeParam(owned)]
        params[0].data = owned
        path = tmp_path / "c.npz"
        save_checkpoint(path, params, step=0, store=store)  # generation 1
        owned[:] = 9.0
        store.mark_dirty("emb")
        store.commit()  # generation 2
        ckpt = load_checkpoint(path)
        ckpt.restore(params, store=store)
        np.testing.assert_array_equal(owned, np.ones((4, 2)))
        store.close()

    def test_restore_without_store_fails(self, tmp_path):
        store = MmapShardStore.create(tmp_path / "store")
        owned = store.register("emb", np.ones((4, 2)))
        params = [FakeParam(owned)]
        params[0].data = owned
        path = tmp_path / "c.npz"
        save_checkpoint(path, params, step=0, store=store)
        with pytest.raises(CheckpointError, match="store"):
            load_checkpoint(path).restore(params)
        store.close()

    def test_checkpointer_skips_checkpoint_with_missing_generation(self, tmp_path):
        store = MmapShardStore.create(tmp_path / "store", rows_per_shard=2)
        owned = store.register("emb", np.zeros((4, 2)))
        params = [FakeParam(owned)]
        params[0].data = owned
        ckpt = Checkpointer(tmp_path / "ckpt", keep=3, store=store)
        ckpt.save(0, params)  # generation 1
        owned[:] = 1.0
        store.mark_dirty("emb")
        ckpt.save(1, params)  # generation 2
        store.close()
        # rot generation 2's manifest, then resume: must fall back to step 0
        (tmp_path / "store" / "manifest-g00000002.json").write_bytes(b"junk")
        reopened = MmapShardStore.open(tmp_path / "store", mode="train")
        fresh = reopened.register("emb", np.full((4, 2), 5.0))
        params2 = [FakeParam(fresh)]
        params2[0].data = fresh
        ckpt2 = Checkpointer(tmp_path / "ckpt", keep=3, store=reopened)
        restored = ckpt2.restore_latest(params2)
        assert restored.step == 0
        np.testing.assert_array_equal(fresh, np.zeros((4, 2)))
        reopened.close()

    def test_checkpointer_refuses_non_finite_before_the_store_commit(self, tmp_path):
        store = MmapShardStore.create(tmp_path / "store", rows_per_shard=2)
        owned = store.register("emb", np.zeros((4, 2)))
        params = [FakeParam(owned)]
        params[0].data = owned
        ckpt = Checkpointer(tmp_path / "ckpt", keep=3, store=store)
        ckpt.save(0, params)  # generation 1
        owned[2, 1] = np.nan
        store.mark_dirty("emb")
        with pytest.raises(TrainingDivergedError, match="parameter 0"):
            ckpt.save(1, params)
        # No archive and no store generation holds the NaN row.
        assert [p.name for p in ckpt.paths()] == ["ckpt-00000000.npz"]
        assert store.generation == 1 and store.generations()[-1] == 1
        store.close()

    def test_fit_resume_through_store_backed_checkpointer(self, tmp_path):
        """An interrupted store-backed fit resumes and finishes cleanly."""
        triples = toy_triples()
        store = MmapShardStore.create(tmp_path / "store", rows_per_shard=4)
        model = TransE(8, 2, dim=4, seed=0, store=store)
        runtime = TrainingRuntime(
            checkpointer=Checkpointer(tmp_path / "ckpt", store=store)
        )
        model.fit(triples, epochs=2, batch_size=8, seed=0, runtime=runtime)
        assert store.generation == 2
        store.close()

        reopened = MmapShardStore.open(tmp_path / "store", mode="train")
        resumed = TransE(8, 2, dim=4, seed=0, store=reopened)
        runtime2 = TrainingRuntime(
            checkpointer=Checkpointer(tmp_path / "ckpt", store=reopened)
        )
        history = resumed.fit(
            triples, epochs=3, batch_size=8, seed=0, runtime=runtime2
        )
        assert len(history) == 3  # two epochs resumed from disk + one new
        assert reopened.generation == 3
        reopened.close()
