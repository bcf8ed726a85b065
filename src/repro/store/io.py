"""Byte-level IO primitives behind the store's durability protocol.

Every durable mutation the embedding store performs reduces to exactly
two primitives:

* :meth:`StoreIO.write_all` — create/overwrite each *temporary* file
  with its full payload, then fsync each (:meth:`StoreIO.write_bytes` is
  the one-file case);
* :meth:`StoreIO.replace_all` — atomically rename each temporary file
  over its final name (``os.replace``), then fsync each containing
  directory once (:meth:`StoreIO.replace` is the one-file case).

A commit writes its shard files as one *group*: every temp file is
written, then every one is fsync'd, then every one is renamed, then
``shards/`` is fsync'd once.  Writing the group before its first fsync
lets the filesystem flush it in fewer journal commits (measurably faster
than file by file on ext4), and the group pays one directory fsync
instead of one per file.

Each primitive call advances a global **IO-operation index**, so a
fault plan can deterministically address "the k-th IO operation of this
scenario".  A :class:`RecordingStoreIO` also keeps every op in its
:attr:`~RecordingStoreIO.op_log`; the plain :class:`StoreIO` keeps only
the count, so a long-running store holds no per-op state.  The
crash-matrix harness (:mod:`repro.store.harness`) first runs a scenario
with a :class:`RecordingStoreIO` to enumerate the ops, then replays it
once per ``(op, fault kind)`` pair with a :class:`FaultingStoreIO`.

:class:`FaultingStoreIO` implements the IO fault kinds declared in
:mod:`repro.runtime.faults`:

============================  =======================================
``torn_write``                half the payload reaches the temp file,
                              then :class:`InjectedCrash` (torn page)
``bitrot``                    the write completes with one byte flipped
                              (latent corruption, *no* crash)
``fsync_fail``                the fsync raises ``OSError`` back to the
                              store (commit must abort cleanly)
``crash_before_rename``       :class:`InjectedCrash` with the temp file
                              on disk but the rename not issued
``crash_after_rename``        the rename is durable, then
                              :class:`InjectedCrash`
============================  =======================================

``InjectedCrash`` must never be caught by store code — it simulates
SIGKILL.  Recovery is exercised by *re-opening* the store afterwards.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from repro.runtime.faults import FaultInjector, InjectedCrash

__all__ = ["IOOp", "StoreIO", "RecordingStoreIO", "FaultingStoreIO"]


@dataclass(frozen=True)
class IOOp:
    """One recorded IO operation: ``kind`` is ``"write"`` or ``"rename"``."""

    index: int
    kind: str
    path: str


class StoreIO:
    """The real IO layer: temp-file writes with fsync, atomic renames."""

    def __init__(self) -> None:
        self._next_index = 0

    # ------------------------------------------------------------------ #
    def _advance(self, kind: str, path: Path) -> int:
        index = self._next_index
        self._next_index += 1
        return index

    @property
    def num_ops(self) -> int:
        return self._next_index

    # ------------------------------------------------------------------ #
    def write_bytes(self, path: str | Path, data: bytes) -> None:
        """Write ``data`` to ``path`` (a temp file) and fsync it."""
        self.write_all([(path, data)])

    def write_all(self, files: Iterable[tuple[str | Path, bytes]]) -> None:
        """Write each ``(path, data)`` temp file in order (one ``write`` op
        each, its fsync included), then fsync each in the same order.

        ``files`` is read lazily, so a caller can encode one file at a time.
        """
        written: list[tuple[int, Path]] = []
        for path, data in files:
            path = Path(path)
            step = self._advance("write", path)
            self._do_write(step, path, bytes(data))
            written.append((step, path))
        for step, path in written:
            fd = os.open(path, os.O_RDONLY)
            try:
                self._fsync_file(step, fd)
            finally:
                os.close(fd)

    def replace(self, tmp: str | Path, final: str | Path) -> None:
        """Atomically rename ``tmp`` over ``final``; fsync the directory."""
        self.replace_all([(tmp, final)])

    def replace_all(self, pairs: Iterable[tuple[str | Path, str | Path]]) -> None:
        """Rename each ``(tmp, final)`` pair in order (one ``rename`` op
        each), then fsync every directory they landed in, once each."""
        directories: list[Path] = []
        for tmp, final in pairs:
            tmp, final = Path(tmp), Path(final)
            step = self._advance("rename", final)
            self._do_replace(step, tmp, final)
            if final.parent not in directories:
                directories.append(final.parent)
        for directory in directories:
            self._fsync_dir(directory)

    # ------------------------------------------------------------------ #
    # overridable internals (the fault-injection seams)
    # ------------------------------------------------------------------ #
    def _do_write(self, step: int, path: Path, data: bytes) -> None:
        with open(path, "wb") as handle:
            handle.write(data)

    def _fsync_file(self, step: int, fd: int) -> None:
        os.fsync(fd)

    def _do_replace(self, step: int, tmp: Path, final: Path) -> None:
        os.replace(tmp, final)

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir-open
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform without dir-fsync
            pass
        finally:
            os.close(fd)


class RecordingStoreIO(StoreIO):
    """A :class:`StoreIO` that keeps an :class:`IOOp` for every write and
    rename in :attr:`op_log` (what the crash matrix enumerates)."""

    def __init__(self) -> None:
        super().__init__()
        self.op_log: list[IOOp] = []

    def _advance(self, kind: str, path: Path) -> int:
        index = super()._advance(kind, path)
        self.op_log.append(IOOp(index=index, kind=kind, path=str(path)))
        return index


class FaultingStoreIO(StoreIO):
    """A :class:`StoreIO` that applies an injector's planned IO faults.

    ``injector.plan`` steps address the IO-operation index.  Faults whose
    kind does not apply to the op at their step (e.g. a rename fault at a
    write op) are ignored, so a crash matrix can sweep every kind over
    every op without bookkeeping which kind fits where.
    """

    def __init__(self, injector: FaultInjector) -> None:
        super().__init__()
        self.injector = injector
        self._failing_fsyncs: set[int] = set()

    def _do_write(self, step: int, path: Path, data: bytes) -> None:
        kinds = {f.kind for f in self.injector.io_faults(step)}
        torn = "torn_write" in kinds
        if torn:
            data = data[: max(1, len(data) // 2)]
        if "bitrot" in kinds and data:
            rotted = bytearray(data)
            rotted[step % len(rotted)] ^= 0xFF
            data = bytes(rotted)
        if "fsync_fail" in kinds:
            self._failing_fsyncs.add(step)
        super()._do_write(step, path, data)
        if torn:
            raise InjectedCrash(f"torn write crash at io op {step} ({path.name})")

    def _fsync_file(self, step: int, fd: int) -> None:
        if step in self._failing_fsyncs:
            self._failing_fsyncs.discard(step)
            raise OSError(f"injected fsync failure at io op {step}")
        super()._fsync_file(step, fd)

    def _do_replace(self, step: int, tmp: Path, final: Path) -> None:
        kinds = {f.kind for f in self.injector.io_faults(step)}
        if "crash_before_rename" in kinds:
            raise InjectedCrash(
                f"crash before rename at io op {step} ({final.name})"
            )
        os.replace(tmp, final)
        if "crash_after_rename" in kinds:
            raise InjectedCrash(
                f"crash after rename at io op {step} ({final.name})"
            )
