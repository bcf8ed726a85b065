"""Row-sharded, checksummed, mmap-backed embedding store.

Layout of a store directory::

    store/
      manifest-g00000000.json     # generation 0 (created empty)
      manifest-g00000001.json     # ...one JSON manifest per generation
      shards/
        entity-g00000001-s00000.shard
        entity-g00000001-s00001.shard
        relation-g00000001-s00000.shard
        entity-g00000002-s00001.shard   # gen 2 rewrote only shard 1
      quarantine/                 # recovery sweeps torn/corrupt files here

Two modes:

``train``
    Working values live in ordinary float64 arrays the model owns
    (``register`` binds them); the store tracks dirty rows (fed by the
    sparse-gradient row indices) and :meth:`MmapShardStore.commit`
    persists *only the shards containing dirty rows* as float32 under a
    new manifest generation.  Clean shards are carried into the new
    manifest by reference — that sharing is the incremental-checkpoint
    win.

``serve``
    Tables are :class:`ShardedTable` views over read-only memory-mapped
    shards (plain ``ndarray`` views of ``np.memmap`` objects) — opening
    or swapping a generation moves **no** embedding bytes.
    :meth:`MmapShardStore.remap` re-points the same view objects at
    another generation's files, which is what makes
    ``ModelRegistry.promote`` a manifest swap and rollback a re-point.

Crash safety (the full protocol is specified in ``docs/storage.md``):
every file is written temp + fsync + atomic rename — a commit writes all
its shard temps, fsyncs each, renames each and fsyncs ``shards/`` once —
and the manifest rename is the single commit point.
:meth:`MmapShardStore.open` verifies checksums newest-generation-first,
quarantines debris, and falls back to the last consistent generation —
so a crash at *any* byte of a write leaves the store recoverable to
exactly an old or a new generation, never a hybrid (enforced by
:mod:`repro.store.harness`).
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from repro.core.exceptions import StoreCorruptionError, StoreError
from repro.telemetry.base import get_active

from .base import EmbeddingStore
from .io import StoreIO
from .manifest import (
    build_manifest,
    load_manifest,
    manifest_name,
    scan_manifests,
    write_manifest,
)
from .shard import ShardInfo, encode_shard, load_shard, map_payload
from .verify import SHARDS_DIR, check_generation, quarantine_debris

__all__ = ["ShardedTable", "MmapShardStore"]

_TABLE_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def _temp(path: Path) -> Path:
    return path.with_name(path.name + ".tmp")


class ShardedTable:
    """Read-only row-sharded view over a table's mmap'd shard files.

    Row lookups gather only the requested rows (a copy of *those rows*,
    never of the table); ``@`` distributes over shards so full-catalog
    scoring streams through the maps without materializing the table.
    The object survives :meth:`MmapShardStore.remap` — only its internal
    shard list is re-pointed — so holders never see a half-swapped state.
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


class MmapShardStore(EmbeddingStore):
    """The durable :class:`~repro.store.base.EmbeddingStore` (see module doc)."""

    durable = True

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
        io: StoreIO | None = None,
        quarantine: bool = True,
    ) -> "MmapShardStore":
        """Open with first-class recovery (see module doc).

        Walks manifests newest-first, fully verifying each generation's
        shard checksums, and lands on the newest consistent one;
        torn/corrupt newer generations are recorded and (by default)
        quarantined.  ``generation`` pins an exact generation instead
        (no quarantine pass) — used for rollback views and checkpoint
        restore.  Raises :class:`StoreError` when nothing consistent
        exists.
        """
        if mode not in ("train", "serve"):
            raise StoreError(f"unknown store mode {mode!r}")
        directory = Path(directory)
        io = io if io is not None else StoreIO()
        entries = scan_manifests(directory) if directory.is_dir() else []
        if not entries:
            raise StoreError(f"{directory} is not an embedding store (no manifests)")
        tel = get_active()
        manifest, offsets, broken = cls._recover(directory, entries, generation, tel)
        if quarantine and generation is None:
            debris = quarantine_debris(directory) if broken or cls._has_debris(
                directory
            ) else []
            if debris and tel.enabled:
                tel.counter("store.files.quarantined").inc(len(debris))
        if broken and tel.enabled:
            tel.counter("store.recoveries").inc()
            tel.counter("store.generations.broken").inc(len(broken))
        store = cls(directory, mode, io, manifest, manifest.get("seed"))
        store.default_rows_per_shard = 4096
        if mode == "serve":
            store._build_views(offsets)
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
    ) -> tuple[dict, dict[str, int], list[int]]:
        """Newest-first verified walk.

        Returns ``(manifest, payload offsets by shard file, broken gens)``.
        """
        broken: list[int] = []
        for gen, path in reversed(entries):
            if generation is not None and gen != generation:
                continue
            try:
                manifest = load_manifest(path)
                status = check_generation(directory, manifest)
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
        """Materialize ``name`` at ``generation`` as float64 (verified read)."""
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
        for shard in spec["shards"]:
            info = ShardInfo.from_json(shard)
            path = self.directory / SHARDS_DIR / info.file
            __, values = load_shard(path, expected=info, dim=dim)
            out[info.row_start : info.row_start + info.rows] = values
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

    def dirty_row_count(self, name: str) -> int:
        return int(self._dirty[name].sum())

    def commit(self, tag: str = "") -> int:
        """Persist dirtied shards under a new manifest generation.

        Returns the committed generation — unchanged when nothing is
        dirty (a no-op commit writes nothing).  On any IO failure
        (including an injected ``fsync_fail``) the commit aborts with
        :class:`StoreError`: the current generation is untouched, the
        dirty masks stay set (the commit is retryable), and any leftover
        temp files are swept to quarantine by the next ``open``.
        """
        self._require_train()
        if not any(mask.any() for mask in self._dirty.values()):
            return self.generation
        new_gen = self.generation + 1
        tel = get_active()
        span = (
            tel.begin("store/commit", generation=new_gen, tag=tag)
            if tel.enabled
            else None
        )
        shards_dir = self.directory / SHARDS_DIR
        prev_tables = self._manifest.get("tables", {})
        tables: dict[str, dict] = {}
        rewrite: list[tuple[str, int, Path]] = []  # (table, shard, final path)
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
                    rewrite.append(
                        (name, s, shards_dir / f"{name}-g{new_gen:08d}-s{s:05d}.shard")
                    )
                    infos.append(None)  # filled in as the shard is encoded
                else:
                    infos.append(ShardInfo.from_json(prev["shards"][s]))
            tables[name] = {
                "rows": rows,
                "dim": dim,
                "dtype": "<f4",
                "rows_per_shard": rps,
                "shards": infos,
            }

        def encoded():
            for name, s, path in rewrite:
                rps = self._rows_per_shard[name]
                info, data = encode_shard(
                    path.name, name, s * rps,
                    self._arrays[name][s * rps : (s + 1) * rps], seed=self.seed,
                )
                tables[name]["shards"][s] = info
                yield _temp(path), data

        try:
            # Group commit: write every shard temp, fsync each, rename each
            # and fsync shards/ once; only then the manifest.
            self.io.write_all(encoded())
            self.io.replace_all((_temp(path), path) for __, __, path in rewrite)
            manifest = build_manifest(
                new_gen, tables, parent=self.generation, tag=tag, seed=self.seed
            )
            write_manifest(self.io, self.directory, manifest)
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
        return new_gen

    # ------------------------------------------------------------------ #
    # serve mode
    # ------------------------------------------------------------------ #
    def _build_views(self, offsets: dict[str, int]) -> None:
        """(Re)build the per-table memmap lists for the current manifest.

        ``offsets`` are the payload offsets the recovery walk verified
        (:attr:`GenerationStatus.payload_offsets`), so no header is read
        again; each shard's shape is the manifest's, which verification
        cross-checked against the header.
        """
        alive: set[str] = set()
        shards_dir = self.directory / SHARDS_DIR
        for name, spec in self._manifest.get("tables", {}).items():
            rows, dim = int(spec["rows"]), int(spec["dim"])
            maps = [
                map_payload(
                    shards_dir / shard["file"], offsets[shard["file"]],
                    int(shard["rows"]), dim,
                )
                for shard in spec["shards"]
            ]
            view = self._views.get(name)
            if view is None:
                view = ShardedTable(name, rows, dim, int(spec["rows_per_shard"]))
                self._views[name] = view
            else:
                view.rows, view.dim = rows, dim
                view.rows_per_shard = int(spec["rows_per_shard"])
            view._set_shards(maps)
            alive.add(name)
        for name in set(self._views) - alive:
            self._views[name]._set_shards(None)

    def remap(self, generation: int | None = None) -> int:
        """Re-point the serve views at another generation's shard files.

        ``None`` targets the newest consistent generation (a fresh
        verified recovery scan).  No embedding bytes move: existing
        :class:`ShardedTable` objects keep their identity and only their
        internal memmap lists are swapped — this is the mechanism behind
        manifest-swap promotion and re-point rollback.  Returns the
        mapped generation.
        """
        self._check_open()
        if self.mode != "serve":
            raise StoreError("remap() is a serve-mode operation")
        entries = scan_manifests(self.directory)
        if not entries:
            raise StoreError(f"{self.directory} has no manifests")
        tel = get_active()
        manifest, offsets, __ = self._recover(
            self.directory, entries, generation, tel
        )
        self._manifest = manifest
        self._build_views(offsets)
        if tel.enabled:
            tel.counter("store.remaps").inc()
        return self.generation
