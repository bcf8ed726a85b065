"""fsck for embedding stores: inspect, render, quarantine, repair.

Pure functions over a store *directory* (no live store object), shared by
three consumers:

* :meth:`MmapShardStore.open <repro.store.mmap.MmapShardStore.open>` uses
  :func:`check_generation` to walk generations newest-first and
  :func:`quarantine_debris` to sweep crash leftovers aside;
* ``python -m repro store-verify <path>`` renders :func:`inspect_store`
  as a per-record / per-generation status report;
* ``store-verify --repair`` calls :func:`repair_store`, which quarantines
  everything inconsistent and guarantees the store re-opens at its last
  consistent generation.

Quarantine moves files into ``quarantine/`` inside the store directory —
nothing is ever deleted, so a forensic look at *why* a record went bad
stays possible.  Protection is per file: a segment referenced by any
healthy generation is never quarantined, even if a broken generation
also references it, or one of its other records is rotten (records are
shared across generations by design).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.exceptions import StoreCorruptionError, StoreError

from .manifest import load_manifest, referenced_files, scan_manifests
from .shard import ShardInfo, map_segment, verify_record

__all__ = [
    "SHARDS_DIR",
    "QUARANTINE_DIR",
    "ShardStatus",
    "GenerationStatus",
    "StoreReport",
    "check_generation",
    "inspect_store",
    "render_report",
    "quarantine_debris",
    "repair_store",
]

SHARDS_DIR = "shards"
QUARANTINE_DIR = "quarantine"


@dataclass(frozen=True)
class ShardStatus:
    """Verification outcome for one shard record referenced by one
    generation: the record at byte ``offset`` of segment ``file``.

    ``payload_offset`` is where the verified payload starts in the
    segment (``None`` when verification failed), so a caller can map the
    rows without reading the header again.
    """

    file: str
    ok: bool
    reason: str = ""
    payload_offset: int | None = None
    offset: int = 0


@dataclass(frozen=True)
class GenerationStatus:
    """Verification outcome for one manifest generation."""

    generation: int
    manifest_file: str
    ok: bool
    reason: str = ""
    shards: tuple[ShardStatus, ...] = ()

    @property
    def bad_shards(self) -> tuple[ShardStatus, ...]:
        return tuple(s for s in self.shards if not s.ok)

    @property
    def payload_offsets(self) -> dict[tuple[str, int], int]:
        """Verified payload offset of every healthy record, keyed by
        ``(segment file, record offset)``."""
        return {(s.file, s.offset): s.payload_offset for s in self.shards if s.ok}


@dataclass(frozen=True)
class StoreReport:
    """Everything ``store-verify`` knows about a store directory."""

    directory: str
    current: int | None
    generations: tuple[GenerationStatus, ...] = ()  # ascending
    orphans: tuple[str, ...] = ()  # unreferenced segments under shards/
    tmp_files: tuple[str, ...] = ()  # leftover *.tmp anywhere
    quarantined: tuple[str, ...] = ()  # current quarantine/ contents


def check_generation(
    directory: str | Path,
    manifest: dict,
    segments: dict[str, np.ndarray] | None = None,
) -> GenerationStatus:
    """Verify every shard record a (parsed) manifest references,
    checksums included.

    Each segment file is mapped once (:func:`~repro.store.shard.map_segment`)
    and each of its records verified from that map; a record's status
    records the payload offset it verified.  ``segments``, when given,
    receives every segment's map by file name, for the caller to view
    the payloads through.
    """
    shards_dir = Path(directory) / SHARDS_DIR
    maps: dict[str, np.ndarray] = {}
    unreadable: dict[str, str] = {}  # segment file -> why it cannot be mapped
    statuses: list[ShardStatus] = []
    for __, spec in sorted(manifest.get("tables", {}).items()):
        dim = int(spec["dim"])
        for shard in spec["shards"]:
            info = ShardInfo.from_json(shard)
            if info.file not in maps and info.file not in unreadable:
                try:
                    maps[info.file] = map_segment(shards_dir / info.file)
                except StoreCorruptionError as exc:
                    unreadable[info.file] = str(exc)
            reason, offset = None, None
            if info.file in unreadable:
                reason = f"{info.record}: {unreadable[info.file]}"
            else:
                try:
                    __, offset = verify_record(maps[info.file], info, dim=dim)
                except StoreCorruptionError as exc:
                    reason = str(exc)
            statuses.append(ShardStatus(
                file=info.file, ok=reason is None, reason=reason or "",
                payload_offset=offset, offset=info.offset,
            ))
    if segments is not None:
        segments.update(maps)
    bad = [s for s in statuses if not s.ok]
    gen = int(manifest["generation"])
    return GenerationStatus(
        generation=gen,
        manifest_file=f"manifest-g{gen:08d}.json",
        ok=not bad,
        reason=f"{len(bad)} bad shard(s)" if bad else "",
        shards=tuple(statuses),
    )


def _tmp_files(directory: Path) -> list[Path]:
    found = sorted(directory.glob("*.tmp"))
    shards = directory / SHARDS_DIR
    if shards.is_dir():
        found.extend(sorted(shards.glob("*.tmp")))
    return found


def inspect_store(directory: str | Path) -> StoreReport:
    """Walk every generation and record of a store; verify all checksums."""
    directory = Path(directory)
    if not directory.is_dir():
        raise StoreError(f"{directory} is not a directory")
    entries = scan_manifests(directory)
    if not entries:
        raise StoreError(f"{directory} is not an embedding store (no manifests)")
    gen_statuses: list[GenerationStatus] = []
    referenced: set[str] = set()
    for gen, path in entries:
        try:
            manifest = load_manifest(path)
        except (StoreCorruptionError, StoreError) as exc:
            gen_statuses.append(
                GenerationStatus(
                    generation=gen, manifest_file=path.name, ok=False,
                    reason=str(exc),
                )
            )
            continue
        referenced |= referenced_files(manifest)
        gen_statuses.append(check_generation(directory, manifest))
    ok_gens = [g.generation for g in gen_statuses if g.ok]
    shards_dir = directory / SHARDS_DIR
    orphans = []
    if shards_dir.is_dir():
        orphans = sorted(
            p.name
            for p in shards_dir.iterdir()
            if p.is_file() and not p.name.endswith(".tmp")
            and p.name not in referenced
        )
    quarantine = directory / QUARANTINE_DIR
    quarantined = (
        tuple(sorted(p.name for p in quarantine.iterdir()))
        if quarantine.is_dir()
        else ()
    )
    return StoreReport(
        directory=str(directory),
        current=max(ok_gens) if ok_gens else None,
        generations=tuple(gen_statuses),
        orphans=tuple(orphans),
        tmp_files=tuple(str(p.relative_to(directory)) for p in _tmp_files(directory)),
        quarantined=quarantined,
    )


def render_report(report: StoreReport) -> str:
    """Human-readable fsck output (stable ordering, no timestamps)."""
    lines = [f"store: {report.directory}"]
    lines.append(
        f"current generation: "
        f"{report.current if report.current is not None else 'NONE (unrecoverable)'}"
    )
    lines.append("generation history:")
    for gen in report.generations:
        verdict = "ok" if gen.ok else f"BROKEN ({gen.reason})"
        shard_note = ""
        if gen.shards:
            good = sum(1 for s in gen.shards if s.ok)
            shard_note = f"  [{good}/{len(gen.shards)} shards ok]"
        lines.append(f"  g{gen.generation:08d}  {verdict}{shard_note}")
        # Every reason starts with the record's name, <segment>@<offset>.
        lines.extend(f"      {shard.reason}" for shard in gen.bad_shards)
    if report.orphans:
        lines.append("orphan segments (unreferenced by any manifest):")
        lines.extend(f"  {name}" for name in report.orphans)
    if report.tmp_files:
        lines.append("leftover temp files:")
        lines.extend(f"  {name}" for name in report.tmp_files)
    if report.quarantined:
        lines.append("quarantine contents:")
        lines.extend(f"  {name}" for name in report.quarantined)
    return "\n".join(lines)


def _move_to_quarantine(directory: Path, path: Path, actions: list[str]) -> None:
    quarantine = directory / QUARANTINE_DIR
    quarantine.mkdir(exist_ok=True)
    target = quarantine / path.name
    suffix = 0
    while target.exists():
        suffix += 1
        target = quarantine / f"{path.name}.{suffix}"
    try:
        os.replace(path, target)
    except OSError:  # pragma: no cover - cross-device or racing cleanup
        return
    actions.append(f"quarantined {path.name}")


def quarantine_debris(
    directory: str | Path, report: StoreReport | None = None
) -> list[str]:
    """Sweep crash leftovers into ``quarantine/``; returns actions taken.

    Quarantines: temp files, orphan segments, broken-generation
    manifests, and segments referenced *only* by broken generations.
    Files referenced by at least one healthy generation are protected.
    """
    directory = Path(directory)
    if report is None:
        report = inspect_store(directory)
    actions: list[str] = []
    protected: set[str] = set()
    for gen in report.generations:
        if not gen.ok:
            continue
        try:
            manifest = load_manifest(directory / gen.manifest_file)
        except (StoreCorruptionError, StoreError):  # pragma: no cover - raced
            continue
        protected |= referenced_files(manifest)
    for tmp in _tmp_files(directory):
        _move_to_quarantine(directory, tmp, actions)
    shards_dir = directory / SHARDS_DIR
    for name in report.orphans:
        _move_to_quarantine(directory, shards_dir / name, actions)
    for gen in report.generations:
        if gen.ok:
            continue
        manifest_path = directory / gen.manifest_file
        condemned: set[str] = set()
        try:
            manifest = load_manifest(manifest_path)
        except (StoreCorruptionError, StoreError):
            pass  # unparseable: its shards are already orphans
        else:
            condemned = referenced_files(manifest) - protected
        for name in sorted(condemned):
            path = shards_dir / name
            if path.is_file():
                _move_to_quarantine(directory, path, actions)
        if manifest_path.is_file():
            _move_to_quarantine(directory, manifest_path, actions)
    return actions


def repair_store(directory: str | Path) -> tuple[StoreReport, list[str]]:
    """Restore the last consistent generation; quarantine everything else.

    Returns ``(post-repair report, actions)``.  Raises
    :class:`~repro.core.exceptions.StoreError` when no generation is
    consistent — there is nothing to restore *to*, and quarantining the
    evidence would only destroy it.
    """
    directory = Path(directory)
    before = inspect_store(directory)
    if before.current is None:
        raise StoreError(
            f"{directory}: no consistent generation to repair to "
            "(every manifest or its shards failed verification)"
        )
    actions = quarantine_debris(directory, report=before)
    return inspect_store(directory), actions
