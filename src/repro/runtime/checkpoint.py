"""Snapshot/restore of training state via ``.npz`` archives.

One compressed ``.npz`` per checkpoint, arrays stored natively plus a
``__meta__`` JSON blob for scalars.  A checkpoint captures everything an
iterative ``fit`` loop needs to resume *bitwise identically*:

* parameter arrays (in ``Module.parameters()`` order),
* optimizer state (via ``Optimizer.state_dict()``),
* the RNG bit-generator state (so the resumed run replays the exact
  permutation/negative-sampling stream the uninterrupted run would have),
* a ``step`` counter and a JSON-safe ``extra`` dict (e.g. loss history).

Sparse-gradient training changes nothing here: lazy Adam
(:mod:`repro.autograd.optim`) keeps full-size dense moment arrays, so
``state_dict`` layouts — and therefore the
checkpoint format — are identical whether a step took the sparse row
update or the dense one, and a snapshot taken after either resumes the
other.

:func:`save_checkpoint` writes through a :class:`~repro.store.io.StoreIO`
(the bound durable store's, so its fault plans and op log cover
checkpoints too): a fsynced temp file, then an atomic rename and a
directory fsync.  :class:`Checkpointer` adds the policy layer: a save
per epoch, pruning to the newest ``keep`` snapshots, resume-from-latest, and
a refusal to save non-finite parameters (``TrainingDivergedError``).
Every other failure mode raises :class:`~repro.core.exceptions.CheckpointError`.

Every archive (format version 2, the only one) carries a CRC-32
*content checksum per stored array* in its ``__meta__`` blob, verified
on load: a snapshot whose bytes rotted on disk, or whose checksum map
omits an array, fails loudly instead of resuming training from
unverified parameters.

A checkpointer may also be bound to a train-mode
:class:`~repro.store.mmap.MmapShardStore` (``store=``).  Parameters whose
live arrays the store owns (identified by
:meth:`~repro.store.mmap.MmapShardStore.table_for_array` identity) are
then **not** serialized into the ``.npz``; instead each save first calls
``store.commit()`` — persisting only the dirty shards — and the archive
records ``{param position -> table name}`` plus the committed generation.
Restore reads those tables back from the store at that exact generation.
The big embedding matrices therefore move from O(table) per snapshot to
O(rows touched since the last commit), while small dense parameters
(projection vectors etc.) keep riding in the ``.npz``.
"""

from __future__ import annotations

import json
import re
import zipfile
import zlib
from dataclasses import dataclass, field
from io import BytesIO
from pathlib import Path

import numpy as np

from repro.core.exceptions import (
    CheckpointError, ConfigError, StoreError, TrainingDivergedError,
)

__all__ = ["Checkpoint", "save_checkpoint", "load_checkpoint", "Checkpointer"]

_FORMAT_VERSION = 2
#: File-name stem of every checkpoint a :class:`Checkpointer` writes.
_PREFIX = "ckpt"
_STEP_RE = re.compile(r"-(\d+)\.npz$")


def _array_crc(array: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(array).tobytes())


@dataclass
class Checkpoint:
    """In-memory form of one saved training snapshot.

    ``params`` entries are ``None`` at positions the embedding store owns;
    ``store_params`` maps those positions to table names and
    ``store_generation`` pins the store generation the snapshot refers to.
    """

    step: int
    params: list[np.ndarray | None]
    optimizer_state: dict | None = None
    rng_state: dict | None = None
    extra: dict = field(default_factory=dict)
    store_params: dict[int, str] = field(default_factory=dict)
    store_generation: int | None = None

    def restore(self, params, optimizer=None, rng=None, store=None) -> "Checkpoint":
        """Copy saved state back into live objects (in place).

        ``params`` is a list of tensors (``.data`` arrays are overwritten),
        ``optimizer`` anything with ``load_state_dict``, ``rng`` a NumPy
        ``Generator`` whose bit-generator state is replaced.  ``store`` is
        required when the snapshot delegated parameters to an embedding
        store; those tables are read back at the snapshot's generation
        (a verified read — corrupt shards raise).
        """
        if len(params) != len(self.params):
            raise CheckpointError(
                f"checkpoint has {len(self.params)} parameters, "
                f"model has {len(params)}"
            )
        if self.store_params and store is None:
            raise CheckpointError(
                "checkpoint delegates parameters to an embedding store; "
                "restore(store=...) is required"
            )
        for pos, (p, saved) in enumerate(zip(params, self.params)):
            if pos in self.store_params:
                table = self.store_params[pos]
                try:
                    saved = store.load_table(table, self.store_generation)
                except StoreError as exc:
                    raise CheckpointError(
                        f"cannot restore table {table!r} at store generation "
                        f"{self.store_generation}: {exc}"
                    ) from exc
            elif saved is None:  # pragma: no cover - inconsistent archive
                raise CheckpointError(f"parameter {pos} missing from checkpoint")
            if p.data.shape != saved.shape:
                raise CheckpointError(
                    f"parameter {pos} shape mismatch: "
                    f"model {p.data.shape} vs checkpoint {saved.shape}"
                )
            np.copyto(p.data, saved)
        if optimizer is not None and self.optimizer_state is not None:
            optimizer.load_state_dict(self.optimizer_state)
        if rng is not None and self.rng_state is not None:
            rng.bit_generator.state = self.rng_state
        return self


def _split_state(state: dict) -> tuple[dict, dict]:
    """Partition an optimizer state dict into (scalars, array-lists)."""
    scalars: dict = {}
    arrays: dict = {}
    for key, value in state.items():
        if isinstance(value, list) and all(isinstance(a, np.ndarray) for a in value):
            arrays[key] = value
        elif isinstance(value, (int, float, str, bool)) or value is None:
            scalars[key] = value
        else:
            raise CheckpointError(
                f"optimizer state entry {key!r} is neither a scalar nor a "
                "list of arrays"
            )
    return scalars, arrays


def save_checkpoint(
    path: str | Path,
    params,
    optimizer=None,
    step: int = 0,
    rng: np.random.Generator | None = None,
    extra: dict | None = None,
    store=None,
) -> Path:
    """Write one checkpoint archive to ``path`` (atomic) and return it.

    With a ``store``, the store is committed *first* (its manifest
    rename is its own atomic commit point) and store-owned parameter
    arrays are recorded by reference instead of serialized.  A crash
    between the two commits leaves either an unreferenced store
    generation (harmless; never restored) or nothing — never a checkpoint
    pointing at a generation that does not exist.
    """
    path = Path(path)
    arrays: dict[str, np.ndarray] = {}
    meta: dict = {
        "version": _FORMAT_VERSION,
        "step": int(step),
        "num_params": 0,
        "extra": dict(extra or {}),
    }
    if store is not None:
        try:
            meta["store_generation"] = int(store.commit(tag=f"ckpt-{int(step)}"))
        except StoreError as exc:
            raise CheckpointError(f"store commit failed for {path}: {exc}") from exc
    store_params: dict[str, str] = {}
    for pos, p in enumerate(params):
        table = store.table_for_array(p.data) if store is not None else None
        if table is not None:
            store_params[str(pos)] = table
        else:
            arrays[f"param__{pos:04d}"] = np.asarray(p.data)
        meta["num_params"] = pos + 1
    if store_params:
        meta["store_params"] = store_params
    if optimizer is not None:
        scalars, arr_lists = _split_state(optimizer.state_dict())
        meta["optimizer"] = {"type": type(optimizer).__name__, "scalars": scalars,
                             "array_keys": {k: len(v) for k, v in arr_lists.items()}}
        for key, lst in arr_lists.items():
            for pos, arr in enumerate(lst):
                arrays[f"opt__{key}__{pos:04d}"] = arr
    if rng is not None:
        meta["rng_state"] = rng.bit_generator.state
    meta["checksums"] = {key: _array_crc(arr) for key, arr in arrays.items()}
    try:
        blob = json.dumps(meta)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint metadata is not JSON-safe: {exc}") from exc
    arrays["__meta__"] = np.frombuffer(blob.encode("utf-8"), dtype=np.uint8)

    from repro.store.io import StoreIO  # the store imports this package

    buffer = BytesIO()
    np.savez_compressed(buffer, **arrays)
    io = store.io if store is not None else StoreIO()
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        io.write_bytes(tmp, buffer.getvalue())
        io.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise CheckpointError(f"failed to write checkpoint {path}: {exc}") from exc
    return path


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint archive written by :func:`save_checkpoint`."""
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            if "__meta__" not in archive:
                raise CheckpointError(f"{path} is not a checkpoint archive")
            meta = json.loads(bytes(archive["__meta__"].tobytes()).decode("utf-8"))
            if meta.get("version") != _FORMAT_VERSION:
                raise CheckpointError(
                    f"unsupported checkpoint version {meta.get('version')!r}"
                )
            checksums = meta.get("checksums", {})
            unchecked = set(archive.files) - set(checksums) - {"__meta__"}
            if unchecked:
                raise CheckpointError(
                    f"{path.name}: no checksum for arrays {sorted(unchecked)}"
                )
            for key, crc in checksums.items():
                if key not in archive:
                    raise CheckpointError(f"{path.name}: array {key!r} missing")
                if _array_crc(archive[key]) != int(crc):
                    raise CheckpointError(
                        f"{path.name}: array {key!r} failed its content "
                        "checksum (bitrot?)"
                    )
            store_params = {
                int(pos): str(table)
                for pos, table in meta.get("store_params", {}).items()
            }
            params: list[np.ndarray | None] = [
                None if pos in store_params else archive[f"param__{pos:04d}"]
                for pos in range(meta["num_params"])
            ]
            optimizer_state = None
            if "optimizer" in meta:
                opt_meta = meta["optimizer"]
                optimizer_state = dict(opt_meta["scalars"])
                optimizer_state["type"] = opt_meta["type"]
                for key, count in opt_meta["array_keys"].items():
                    optimizer_state[key] = [
                        archive[f"opt__{key}__{pos:04d}"] for pos in range(count)
                    ]
            gen = meta.get("store_generation")
            return Checkpoint(
                step=int(meta["step"]),
                params=params,
                optimizer_state=optimizer_state,
                rng_state=meta.get("rng_state"),
                extra=dict(meta.get("extra", {})),
                store_params=store_params,
                store_generation=None if gen is None else int(gen),
            )
    except CheckpointError:
        raise
    except FileNotFoundError:
        raise
    except (KeyError, ValueError, OSError, zipfile.BadZipFile,
            json.JSONDecodeError) as exc:
        raise CheckpointError(f"failed to load checkpoint {path}: {exc}") from exc


class Checkpointer:
    """Checkpointing into a directory, newest-``keep`` retained.

    :func:`repro.runtime.loop.train_epochs` saves once per epoch, with
    the epoch as ``step``.  :meth:`save` refuses NaN or Inf parameters with ``TrainingDivergedError`` and writes
    nothing, no archive and no store commit, so every snapshot on disk is
    one a resume can train on.

    ``store`` binds a durable embedding store: every save becomes an
    *incremental* checkpoint (store commit of dirty shards + small
    ``.npz`` for everything else), and resume restores store-owned tables
    from the snapshot's recorded generation.  A snapshot whose store
    generation no longer verifies is skipped the same way a corrupt
    ``.npz`` is — resume falls back to the next-newest loadable pair.
    """

    def __init__(
        self,
        directory: str | Path,
        keep: int = 3,
        store=None,
    ) -> None:
        if keep < 1:
            raise ConfigError("'keep' must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self.store = store

    # ------------------------------------------------------------------ #
    def _path_for(self, step: int) -> Path:
        return self.directory / f"{_PREFIX}-{step:08d}.npz"

    def paths(self) -> list[Path]:
        """Existing checkpoint paths, oldest first."""
        found = []
        for p in self.directory.glob(f"{_PREFIX}-*.npz"):
            m = _STEP_RE.search(p.name)
            if m:
                found.append((int(m.group(1)), p))
        return [p for __, p in sorted(found)]

    # ------------------------------------------------------------------ #
    def save(self, step, params, optimizer=None, rng=None, extra=None) -> Path:
        for pos, p in enumerate(params):
            if not np.isfinite(p.data).all():
                raise TrainingDivergedError(
                    f"refusing to checkpoint step {step}: parameter {pos} "
                    "holds non-finite values"
                )
        path = save_checkpoint(
            self._path_for(step), params, optimizer=optimizer, step=step,
            rng=rng, extra=extra, store=self.store,
        )
        self._prune()
        return path

    def _prune(self) -> None:
        paths = self.paths()
        for stale in paths[: -self.keep]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    # ------------------------------------------------------------------ #
    def _check_generation(self, checkpoint: Checkpoint, path: Path) -> None:
        """A store-backed snapshot is loadable only if its generation is."""
        if not checkpoint.store_params:
            return
        if self.store is None:
            raise CheckpointError(
                f"{path.name} delegates parameters to an embedding store but "
                "this Checkpointer has none bound"
            )
        if checkpoint.store_generation not in self.store.generations():
            raise CheckpointError(
                f"{path.name} refers to store generation "
                f"{checkpoint.store_generation}, which is gone or corrupt"
            )

    def restore_latest(self, params, optimizer=None, rng=None) -> Checkpoint | None:
        """Load and apply the newest restorable checkpoint (``None`` for an
        empty directory).

        A truncated or corrupt file, or one whose store generation is gone
        or reads back corrupt, must not abort resume: candidates are tried
        newest-first and failing ones skipped.  Only when every existing
        checkpoint fails does a :class:`CheckpointError` propagate,
        carrying each file's failure.
        """
        paths = self.paths()
        if not paths:
            return None
        failures: list[str] = []
        for path in reversed(paths):
            try:
                checkpoint = load_checkpoint(path)
                self._check_generation(checkpoint, path)
                return checkpoint.restore(
                    params, optimizer=optimizer, rng=rng, store=self.store
                )
            except (CheckpointError, FileNotFoundError) as exc:
                failures.append(f"{path.name}: {exc}")
        raise CheckpointError(
            "no restorable checkpoint in "
            f"{self.directory} ({len(failures)} candidate(s) failed): "
            + "; ".join(failures)
        )
