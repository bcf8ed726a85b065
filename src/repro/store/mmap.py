"""Row-sharded, checksummed, mmap-backed embedding store.

Layout of a store directory::

    store/
      manifest-g00000000.json     # generation 0 (created empty)
      manifest-g00000001.json     # ...one JSON manifest per generation
      shards/
        seg-g00000001.seg         # gen 1's records: every shard of
                                  # every table, 64-byte aligned
        seg-g00000002.seg         # gen 2 rewrote only entity shard 1;
                                  # its manifest keeps the rest in gen 1's
      quarantine/                 # recovery sweeps torn/corrupt files here

Two modes:

``train``
    Working values live in ordinary float64 arrays the model owns
    (``register`` binds them); the store tracks dirty rows (fed by the
    sparse-gradient row indices) and :meth:`MmapShardStore.commit`
    persists *only the shards containing dirty rows* as float32 records
    of one new segment, under a new manifest generation.  Clean shards
    are carried into the new manifest by reference — that sharing is
    the incremental-checkpoint win.

``serve``
    Tables are :class:`ShardedTable` views over read-only memory-mapped
    segments (one map per segment; each shard is a plain ``ndarray``
    view of its record's payload) — opening
    a generation moves **no** embedding bytes, which is what makes
    promotion a manifest swap and rollback a re-open at an older
    generation (``MmapShardStore.open(..., generation=g)``).

Crash safety (the full protocol is specified in ``docs/storage.md``):
every file is written temp + fsync + atomic rename — a commit writes its
segment temp, fsyncs it, renames it and fsyncs ``shards/`` —
and the manifest rename is the single commit point.
:meth:`MmapShardStore.open` verifies checksums newest-generation-first,
quarantines debris, and falls back to the last consistent generation —
so a crash at *any* byte of a write leaves the store recoverable to
exactly an old or a new generation, never a hybrid (enforced by
:mod:`repro.store.harness`).
"""

from __future__ import annotations

import re
import threading
from collections.abc import Callable
from pathlib import Path

import numpy as np

from repro.core.exceptions import StoreCorruptionError, StoreError
from repro.telemetry.base import get_active

from .io import StoreIO
from .manifest import (
    build_manifest,
    load_manifest,
    manifest_name,
    scan_manifests,
    write_manifest,
)
from .shard import (
    RECORD_ALIGN,
    ShardInfo,
    encode_shard,
    map_segment,
    record_values,
    verify_record,
)
from .verify import SHARDS_DIR, check_generation, quarantine_debris

__all__ = ["ShardedTable", "MmapShardStore"]

_TABLE_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def _temp(path: Path) -> Path:
    return path.with_name(path.name + ".tmp")


class ShardedTable:
    """Read-only row-sharded view over a table's mmap'd shard records.

    Row lookups gather only the requested rows (a copy of *those rows*,
    never of the table); ``@`` distributes over shards so full-catalog
    scoring streams through the maps without materializing the table.
    """

    def __init__(self, name: str, rows: int, dim: int, rows_per_shard: int) -> None:
        self.name = name
        self.rows = int(rows)
        self.dim = int(dim)
        self.rows_per_shard = int(rows_per_shard)
        self._shards: list[np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    def _set_shards(self, shards: list[np.ndarray] | None) -> None:
        self._shards = shards

    def _require(self) -> list[np.ndarray]:
        if self._shards is None:
            raise StoreError(f"table {self.name!r} is closed (store released it)")
        return self._shards

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.dim)

    @property
    def dtype(self) -> np.dtype:
        return np.dtype("<f4")

    def __len__(self) -> int:
        return self.rows

    # ------------------------------------------------------------------ #
    def gather(self, rows) -> np.ndarray:
        """Copy of the requested rows, shape ``(len(rows), dim)``, float32."""
        shards = self._require()
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        if not rows.size:
            return np.empty((0, self.dim), dtype=np.float32)
        # Rows in ascending order make each shard's rows one contiguous
        # run, found by one binary search over the shard boundaries.  Any
        # sorting permutation serves: equal rows copy equal bytes.
        order = None
        if not (rows[1:] >= rows[:-1]).all():
            order = np.argsort(rows)
            rows = rows[order]
        if rows[0] < 0 or rows[-1] >= self.rows:
            raise StoreError(
                f"row index out of range for table {self.name!r} "
                f"({self.rows} rows)"
            )
        rps = self.rows_per_shard
        first, last = int(rows[0]) // rps, int(rows[-1]) // rps
        edges = np.searchsorted(rows, np.arange(first + 1, last + 1) * rps).tolist()
        blocks = [
            shards[s].take(rows[lo:hi] - s * rps, axis=0)
            for s, lo, hi in zip(range(first, last + 1), [0, *edges], [*edges, rows.size])
            if lo < hi
        ]
        ordered = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        if order is None:
            return ordered
        out = np.empty_like(ordered)
        out[order] = ordered
        return out

    def row(self, index: int) -> np.ndarray:
        """Row ``index`` as a read-only view into its shard's map (no copy)."""
        shards = self._require()
        index = int(index)
        if not 0 <= index < self.rows:
            raise StoreError(
                f"row index out of range for table {self.name!r} "
                f"({self.rows} rows)"
            )
        rps = self.rows_per_shard
        return shards[index // rps][index % rps]

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return self.gather([int(index)])[0]
        if isinstance(index, slice):
            return self.gather(np.arange(*index.indices(self.rows)))
        return self.gather(index)

    def __matmul__(self, other) -> np.ndarray:
        """Shard-wise ``table @ other`` (scores), no full-table copy."""
        shards = self._require()
        other = np.asarray(other)
        return np.concatenate([np.asarray(s @ other) for s in shards], axis=0)

    def to_array(self) -> np.ndarray:
        """Materialize the whole table (an explicit full copy), float32."""
        return np.concatenate(self._require(), axis=0)


class MmapShardStore:
    """The durable embedding store (see module doc)."""

    def __init__(
        self,
        directory: Path,
        mode: str,
        io: StoreIO,
        manifest: dict,
        seed: int | None,
    ) -> None:
        self.directory = Path(directory)
        self.mode = mode
        self.io = io
        self.seed = seed
        self.track_dirty = mode == "train"
        self._manifest = manifest
        self._closed = False
        # train mode: live working arrays + per-table dirty row masks
        self._arrays: dict[str, np.ndarray] = {}
        self._dirty: dict[str, np.ndarray] = {}
        self._rows_per_shard: dict[str, int] = {}
        # serve mode: persistent sharded views (built by open())
        self._views: dict[str, ShardedTable] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        directory: str | Path,
        rows_per_shard: int = 4096,
        seed: int | None = None,
        io: StoreIO | None = None,
    ) -> "MmapShardStore":
        """Initialize an empty store (generation 0) and open it for training."""
        if rows_per_shard < 1:
            raise StoreError("rows_per_shard must be >= 1")
        directory = Path(directory)
        if directory.is_dir() and scan_manifests(directory):
            raise StoreError(f"{directory} is already a store; use open()")
        directory.mkdir(parents=True, exist_ok=True)
        (directory / SHARDS_DIR).mkdir(exist_ok=True)
        io = io if io is not None else StoreIO()
        manifest = build_manifest(0, {}, parent=None, tag="create", seed=seed)
        write_manifest(io, directory, manifest)
        store = cls(directory, "train", io, manifest, seed)
        store.default_rows_per_shard = int(rows_per_shard)
        return store

    @classmethod
    def open(
        cls,
        directory: str | Path,
        mode: str = "train",
        generation: int | None = None,
    ) -> "MmapShardStore":
        """Open with first-class recovery (see module doc).

        Walks manifests newest-first, fully verifying each generation's
        shard checksums, and lands on the newest consistent one;
        torn/corrupt newer generations are recorded and quarantined,
        along with leftover temp files.  ``generation`` pins an exact
        generation instead and moves no file — used for rollback views,
        checkpoint restore and readers beside a live writer.  Raises
        :class:`StoreError` when nothing consistent exists.
        """
        if mode not in ("train", "serve"):
            raise StoreError(f"unknown store mode {mode!r}")
        directory = Path(directory)
        entries = scan_manifests(directory) if directory.is_dir() else []
        if not entries:
            raise StoreError(f"{directory} is not an embedding store (no manifests)")
        tel = get_active()
        segments: dict[str, np.ndarray] | None = {} if mode == "serve" else None
        manifest, offsets, broken = cls._recover(
            directory, entries, generation, tel, segments
        )
        if generation is None:
            debris = quarantine_debris(directory) if broken or cls._has_debris(
                directory
            ) else []
            if debris and tel.enabled:
                tel.counter("store.files.quarantined").inc(len(debris))
        if broken and tel.enabled:
            tel.counter("store.recoveries").inc()
            tel.counter("store.generations.broken").inc(len(broken))
        store = cls(directory, mode, StoreIO(), manifest, manifest.get("seed"))
        store.default_rows_per_shard = 4096
        if mode == "serve":
            store._build_views(offsets, segments)
        return store

    @staticmethod
    def _has_debris(directory: Path) -> bool:
        if any(directory.glob("*.tmp")):
            return True
        shards = directory / SHARDS_DIR
        return shards.is_dir() and any(shards.glob("*.tmp"))

    @staticmethod
    def _recover(
        directory: Path,
        entries: list[tuple[int, Path]],
        generation: int | None,
        tel,
        segments: dict[str, np.ndarray] | None = None,
    ) -> tuple[dict, dict[tuple[str, int], int], list[int]]:
        """Newest-first verified walk.

        Returns ``(manifest, payload offsets by record, broken gens)``;
        ``segments``, when given, ends up holding the landed generation's
        segment maps by file name.
        """
        broken: list[int] = []
        for gen, path in reversed(entries):
            if generation is not None and gen != generation:
                continue
            if segments is not None:
                segments.clear()
            try:
                manifest = load_manifest(path)
                status = check_generation(directory, manifest, segments)
            except (StoreCorruptionError, StoreError) as exc:
                if generation is not None:
                    raise StoreError(
                        f"generation {generation} is not loadable: {exc}"
                    ) from exc
                broken.append(gen)
                continue
            if tel.enabled:
                tel.counter("store.shards.verified").inc(len(status.shards))
            if status.ok:
                return manifest, status.payload_offsets, broken
            if tel.enabled:
                tel.counter("store.shards.corrupt").inc(len(status.bad_shards))
            if generation is not None:
                raise StoreError(
                    f"generation {generation} failed verification: "
                    + "; ".join(s.reason for s in status.bad_shards)
                )
            broken.append(gen)
        if generation is not None:
            raise StoreError(f"{directory} has no generation {generation}")
        raise StoreError(
            f"{directory}: no consistent generation "
            f"({len(broken)} candidate(s) failed verification)"
        )

    # ------------------------------------------------------------------ #
    # shared surface
    # ------------------------------------------------------------------ #
    @property
    def generation(self) -> int:
        """The generation this store currently reads/extends."""
        return int(self._manifest["generation"])

    def _check_open(self) -> None:
        if self._closed:
            raise StoreError("store is closed")

    def table_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._manifest.get("tables", {})))

    def generations(self) -> tuple[int, ...]:
        """Generations with a *parseable* manifest (payloads verified on load)."""
        out = []
        for gen, path in scan_manifests(self.directory):
            try:
                load_manifest(path)
            except (StoreCorruptionError, StoreError):
                continue
            out.append(gen)
        return tuple(out)

    def load_table(self, name: str, generation: int | None = None) -> np.ndarray:
        """Materialize ``name`` at ``generation`` as float64 (verified read:
        each segment is mapped once, each record verified from the map
        before its rows are copied out)."""
        self._check_open()
        if generation is None or generation == self.generation:
            manifest = self._manifest
        else:
            manifest = load_manifest(self.directory / manifest_name(int(generation)))
        spec = manifest.get("tables", {}).get(name)
        if spec is None:
            raise StoreError(
                f"generation {manifest['generation']} has no table {name!r}"
            )
        rows, dim = int(spec["rows"]), int(spec["dim"])
        out = np.empty((rows, dim), dtype=np.float64)
        segments: dict[str, np.ndarray] = {}
        for shard in spec["shards"]:
            info = ShardInfo.from_json(shard)
            if info.file not in segments:
                segments[info.file] = map_segment(
                    self.directory / SHARDS_DIR / info.file
                )
            segment = segments[info.file]
            __, offset = verify_record(segment, info, dim=dim)
            out[info.row_start : info.row_start + info.rows] = record_values(
                segment, offset, info.rows, dim
            )
        return out

    def close(self) -> None:
        self._closed = True
        for view in self._views.values():
            view._set_shards(None)
        self._arrays.clear()
        self._dirty.clear()

    # ------------------------------------------------------------------ #
    # train mode
    # ------------------------------------------------------------------ #
    def _require_train(self) -> None:
        self._check_open()
        if self.mode != "train":
            raise StoreError("store is open in read-only serve mode")

    def register(self, name: str, array: np.ndarray) -> np.ndarray:
        self._require_train()
        if not _TABLE_NAME_RE.match(name):
            raise StoreError(f"invalid table name {name!r}")
        array = np.asarray(array)
        if array.ndim != 2:
            raise StoreError(f"table {name!r} must be 2-d, got {array.ndim}-d")
        spec = self._manifest.get("tables", {}).get(name)
        if spec is not None:
            if (int(spec["rows"]), int(spec["dim"])) != array.shape:
                raise StoreError(
                    f"table {name!r} has shape ({spec['rows']}, {spec['dim']}) "
                    f"on disk, register() got {array.shape}"
                )
            np.copyto(array, self.load_table(name))
            dirty = np.zeros(array.shape[0], dtype=bool)
            self._rows_per_shard[name] = int(spec["rows_per_shard"])
        else:
            # Brand-new table: everything must reach disk at first commit.
            dirty = np.ones(array.shape[0], dtype=bool)
            self._rows_per_shard[name] = int(
                getattr(self, "default_rows_per_shard", 4096)
            )
        self._arrays[name] = array
        self._dirty[name] = dirty
        return array

    def table(self, name: str):
        self._check_open()
        if self.mode == "serve":
            try:
                return self._views[name]
            except KeyError:
                raise StoreError(f"unknown table {name!r}") from None
        try:
            return self._arrays[name]
        except KeyError:
            raise StoreError(
                f"table {name!r} is not registered (train-mode tables are "
                "bound with register(); use load_table() for a copy)"
            ) from None

    def table_for_array(self, array: np.ndarray) -> str | None:
        for name, arr in self._arrays.items():
            if arr is array:
                return name
        return None

    def mark_dirty(self, name: str, rows: np.ndarray | None = None) -> None:
        self._require_train()
        try:
            mask = self._dirty[name]
        except KeyError:
            raise StoreError(f"table {name!r} is not registered") from None
        if rows is None:
            mask[:] = True
        else:
            mask[np.asarray(rows, dtype=np.int64)] = True

    def commit(
        self, tag: str = "", overlap: Callable[[int], object] | None = None
    ) -> int:
        """Persist dirtied shards under a new manifest generation.

        Returns the committed generation — unchanged when nothing is
        dirty (a no-op commit writes nothing and calls nothing).

        Every dirtied shard becomes one record of a single new segment
        file.  The commit's IO group — encode each record as it is
        streamed into the segment temp, fsync it, rename it, fsync
        ``shards/``, then build and write the manifest
        — runs on one worker thread, joined before ``commit`` returns or
        raises.  Meanwhile the calling thread runs ``overlap(generation)``
        when given: work that reads the bytes being committed but not
        their durability (the online loop builds the successor ANN index
        there).  The worker makes no telemetry call and reads no clock,
        so every span stays on the calling thread.

        On any IO failure (including an injected ``fsync_fail``) the
        commit aborts with :class:`StoreError`: the current generation is
        untouched, the dirty masks stay set (the commit is retryable), and
        any leftover temp files are swept to quarantine by the next
        ``open``.  Whatever the worker raises is re-raised on the calling
        thread, so an ``InjectedCrash`` propagates as if raised inline.
        An exception from ``overlap`` is re-raised once the commit has
        finished, so the store's state always matches its disk; when the
        commit itself failed, its failure wins.
        """
        self._require_train()
        if not any(mask.any() for mask in self._dirty.values()):
            return self.generation
        parent = self.generation
        new_gen = parent + 1
        tel = get_active()
        span = (
            tel.begin("store/commit", generation=new_gen, tag=tag)
            if tel.enabled
            else None
        )
        segment = self.directory / SHARDS_DIR / f"seg-g{new_gen:08d}.seg"
        prev_tables = self._manifest.get("tables", {})
        tables: dict[str, dict] = {}
        rewrite: list[tuple[str, int]] = []  # (table, shard), in segment order
        for name in sorted(self._arrays):
            rows, dim = self._arrays[name].shape
            rps = self._rows_per_shard[name]
            prev = prev_tables.get(name)
            dirty_shards = set(
                np.unique(np.nonzero(self._dirty[name])[0] // rps).tolist()
            )
            infos: list[ShardInfo | None] = []
            for s in range(-(-rows // rps)):
                if prev is None or s in dirty_shards:
                    rewrite.append((name, s))
                    infos.append(None)  # filled in as the record is encoded
                else:
                    infos.append(ShardInfo.from_json(prev["shards"][s]))
            tables[name] = {
                "rows": rows,
                "dim": dim,
                "dtype": "<f4",
                "rows_per_shard": rps,
                "shards": infos,
            }

        def records():
            # Each record is encoded just before it is written and padded
            # with zeros, so the next one starts on a 64-byte boundary.
            offset = 0
            for name, s in rewrite:
                rps = self._rows_per_shard[name]
                info, data = encode_shard(
                    segment.name, name, s * rps,
                    self._arrays[name][s * rps : (s + 1) * rps],
                    seed=self.seed, offset=offset,
                )
                tables[name]["shards"][s] = info
                pad = -len(data) % RECORD_ALIGN
                yield data
                yield bytes(pad)
                offset += len(data) + pad

        outcome: list = []  # the worker's manifest, or what it raised

        def write_group() -> None:
            # One segment (written, fsync'd, renamed, shards/ fsync'd);
            # only then the manifest.
            try:
                self.io.write_chunks(_temp(segment), records())
                self.io.replace(_temp(segment), segment)
                manifest = build_manifest(
                    new_gen, tables, parent=parent, tag=tag, seed=self.seed
                )
                write_manifest(self.io, self.directory, manifest)
                outcome.append(manifest)
            except BaseException as exc:  # re-raised on the calling thread
                outcome.append(exc)

        worker = threading.Thread(target=write_group, name="store-commit")
        worker.start()
        deferred: Exception | None = None
        try:
            if overlap is not None:
                overlap(new_gen)
        except Exception as exc:  # raised once the commit has finished
            deferred = exc
        finally:
            worker.join()
        (manifest,) = outcome
        try:
            if isinstance(manifest, BaseException):
                raise manifest
        except OSError as exc:
            if span is not None:
                tel.end(span, outcome="aborted", error=str(exc))
            raise StoreError(
                f"commit of generation {new_gen} aborted: {exc}"
            ) from exc
        self._manifest = manifest
        for mask in self._dirty.values():
            mask[:] = False
        if span is not None:
            tel.counter("store.commits").inc()
            tel.counter("store.shards.written").inc(len(rewrite))
            tel.end(span, outcome="ok", shards_written=len(rewrite))
        if deferred is not None:
            raise deferred
        return new_gen

    # ------------------------------------------------------------------ #
    # serve mode
    # ------------------------------------------------------------------ #
    def _build_views(
        self, offsets: dict[tuple[str, int], int], segments: dict[str, np.ndarray]
    ) -> None:
        """Build the per-table views for the current manifest.

        ``offsets`` are the payload offsets and ``segments`` the segment
        maps the recovery walk verified (:func:`check_generation`), so no
        file is read or mapped again; each shard is a view of its
        record's payload, shaped as the manifest says (verification
        cross-checked that against the header).
        """
        for name, spec in self._manifest.get("tables", {}).items():
            rows, dim = int(spec["rows"]), int(spec["dim"])
            views = []
            for shard in spec["shards"]:
                info = ShardInfo.from_json(shard)
                views.append(record_values(
                    segments[info.file], offsets[(info.file, info.offset)],
                    info.rows, dim,
                ))
            view = ShardedTable(name, rows, dim, int(spec["rows_per_shard"]))
            view._set_shards(views)
            self._views[name] = view
