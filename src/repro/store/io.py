"""Byte-level IO primitives behind the store's durability protocol.

Every durable mutation the embedding store performs reduces to exactly
two primitives:

* :meth:`StoreIO.write_chunks` — create/overwrite one *temporary* file
  from a stream of byte chunks, then fsync it (:meth:`StoreIO.write_bytes`
  is the one-chunk case);
* :meth:`StoreIO.replace` — atomically rename the temporary file over
  its final name (``os.replace``), then fsync the containing directory.

A commit writes all of its shard records into one *segment* file: one
create, one write stream (each record encoded just before it is
written, so no second copy of the table is held), one fsync, one rename
and one ``shards/`` fsync, then the manifest the same way.

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
``torn_write``                half the file's bytes reach the temp file,
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
        self.write_chunks(path, (data,))

    def write_chunks(self, path: str | Path, chunks: Iterable) -> None:
        """Write the bytes-like ``chunks``, in order, to the temp file
        ``path`` as one ``write`` op (its fsync included).

        ``chunks`` is read lazily, so a caller can encode one record at a
        time while the file is written.
        """
        path = Path(path)
        step = self._advance("write", path)
        self._do_write(step, path, chunks)
        fd = os.open(path, os.O_RDONLY)
        try:
            self._fsync_file(step, fd)
        finally:
            os.close(fd)

    def replace(self, tmp: str | Path, final: str | Path) -> None:
        """Atomically rename ``tmp`` over ``final`` (one ``rename`` op);
        fsync the directory."""
        tmp, final = Path(tmp), Path(final)
        step = self._advance("rename", final)
        self._do_replace(step, tmp, final)
        self._fsync_dir(final.parent)

    # ------------------------------------------------------------------ #
    # overridable internals (the fault-injection seams)
    # ------------------------------------------------------------------ #
    def _do_write(self, step: int, path: Path, chunks: Iterable) -> None:
        with open(path, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)

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

    def _do_write(self, step: int, path: Path, chunks: Iterable) -> None:
        kinds = {f.kind for f in self.injector.io_faults(step)}
        data = b"".join(chunks)
        torn = "torn_write" in kinds
        if torn:
            data = data[: max(1, len(data) // 2)]
        if "bitrot" in kinds and data:
            rotted = bytearray(data)
            rotted[step % len(rotted)] ^= 0xFF
            data = bytes(rotted)
        if "fsync_fail" in kinds:
            self._failing_fsyncs.add(step)
        super()._do_write(step, path, (data,))
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
