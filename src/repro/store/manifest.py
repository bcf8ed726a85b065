"""Versioned JSON manifests — the store's single commit point.

A *generation* is one immutable, fully-materialized state of every table
in the store.  Generation ``g`` is described by ``manifest-g{g:08d}.json``
in the store directory::

    {
      "schema": 2,
      "generation": 3,
      "parent": 2,
      "tag": "ckpt-1",
      "seed": 0,
      "tables": {
        "entity": {
          "rows": 1000, "dim": 32, "dtype": "<f4", "rows_per_shard": 256,
          "shards": [ {"file": "...", "offset": 0, "row_start": 0,
                       "rows": 256, "crc32": 123}, ... ]
        }, ...
      },
      "crc32": <self-checksum>
    }

``crc32`` is the CRC-32 of the canonical JSON of every *other* field
(``sort_keys``, compact separators), so a torn or bit-flipped manifest is
detected before any of its shards are trusted.

Each shard entry names a *record*: the segment ``file`` holding it and
the byte ``offset`` it starts at.  Schema 1 (one record per file) had no
``offset``; its entries read as offset 0, so schema-1 and schema-2
manifests share one reader.

The commit protocol is: write the commit's segment (temp + fsync +
rename), then write the manifest the same way.  The manifest *rename*
is the single atomic commit point — before it, the new generation does
not exist (its segment is unreferenced debris); after it, the
generation is complete because every record it references was already
durable.  Recovery therefore never sees a partial generation: a
generation either has a valid manifest whose records all verify, or it
is not a generation.

Segment files are immutable once renamed: a later generation that leaves
a row range untouched *references the older record* instead of
rewriting it.  That sharing is what makes checkpoints incremental — and
why repair must never quarantine a segment still referenced by a
healthy generation.
"""

from __future__ import annotations

import json
import re
import zlib
from pathlib import Path

from repro.core.exceptions import StoreCorruptionError, StoreError

from .io import StoreIO
from .shard import ShardInfo

__all__ = [
    "MANIFEST_SCHEMA",
    "manifest_name",
    "manifest_generation",
    "scan_manifests",
    "build_manifest",
    "manifest_bytes",
    "parse_manifest",
    "load_manifest",
    "write_manifest",
    "referenced_files",
]

MANIFEST_SCHEMA = 2
#: Schemas the reader accepts: 1 (one record per file, no ``offset``) and 2.
_READABLE_SCHEMAS = (1, 2)
_MANIFEST_RE = re.compile(r"^manifest-g(\d{8})\.json$")


def manifest_name(generation: int) -> str:
    return f"manifest-g{generation:08d}.json"


def manifest_generation(name: str) -> int | None:
    """The generation number encoded in a manifest filename, or ``None``."""
    m = _MANIFEST_RE.match(name)
    return int(m.group(1)) if m else None


def scan_manifests(directory: str | Path) -> list[tuple[int, Path]]:
    """All manifest files in ``directory``, ascending by generation."""
    directory = Path(directory)
    found = []
    for path in directory.glob("manifest-g*.json"):
        gen = manifest_generation(path.name)
        if gen is not None:
            found.append((gen, path))
    return sorted(found)


def build_manifest(
    generation: int,
    tables: dict[str, dict],
    parent: int | None = None,
    tag: str = "",
    seed: int | None = None,
) -> dict:
    """Assemble a manifest dict (without its self-checksum).

    ``tables`` maps table name to ``{"rows", "dim", "dtype",
    "rows_per_shard", "shards": [ShardInfo | dict, ...]}``.
    """
    out_tables = {}
    for name, spec in tables.items():
        shards = [
            s.to_json() if isinstance(s, ShardInfo) else dict(s)
            for s in spec["shards"]
        ]
        out_tables[name] = {
            "rows": int(spec["rows"]),
            "dim": int(spec["dim"]),
            "dtype": str(spec.get("dtype", "<f4")),
            "rows_per_shard": int(spec["rows_per_shard"]),
            "shards": shards,
        }
    return {
        "schema": MANIFEST_SCHEMA,
        "generation": int(generation),
        "parent": None if parent is None else int(parent),
        "tag": str(tag),
        "seed": seed,
        "tables": out_tables,
    }


def _self_crc(body: dict) -> int:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8"))


def manifest_bytes(manifest: dict) -> bytes:
    """Serialize with the embedded self-checksum."""
    body = {k: v for k, v in manifest.items() if k != "crc32"}
    full = dict(body, crc32=_self_crc(body))
    return json.dumps(full, sort_keys=True, indent=1).encode("utf-8")


def parse_manifest(data: bytes, name: str = "<manifest>") -> dict:
    """Parse + self-checksum-verify manifest bytes."""
    try:
        manifest = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreCorruptionError(f"{name}: corrupt manifest ({exc})") from exc
    if not isinstance(manifest, dict) or "crc32" not in manifest:
        raise StoreCorruptionError(f"{name}: not a manifest (no crc32)")
    body = {k: v for k, v in manifest.items() if k != "crc32"}
    if _self_crc(body) != manifest["crc32"]:
        raise StoreCorruptionError(f"{name}: manifest self-checksum mismatch")
    if manifest.get("schema") not in _READABLE_SCHEMAS:
        raise StoreCorruptionError(
            f"{name}: unsupported manifest schema {manifest.get('schema')!r}"
        )
    return manifest


def load_manifest(path: str | Path) -> dict:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise StoreError(f"cannot read manifest {path}: {exc}") from exc
    manifest = parse_manifest(data, name=path.name)
    gen_from_name = manifest_generation(path.name)
    if gen_from_name is not None and gen_from_name != int(manifest["generation"]):
        raise StoreCorruptionError(
            f"{path.name}: filename generation {gen_from_name} != "
            f"manifest generation {manifest['generation']}"
        )
    return manifest


def write_manifest(io: StoreIO, directory: str | Path, manifest: dict) -> Path:
    """Atomically persist ``manifest``; the rename is the commit point."""
    directory = Path(directory)
    path = directory / manifest_name(int(manifest["generation"]))
    tmp = path.with_name(path.name + ".tmp")
    io.write_bytes(tmp, manifest_bytes(manifest))
    io.replace(tmp, path)
    return path


def referenced_files(manifest: dict) -> set[str]:
    """Segment filenames a manifest depends on (relative to the shards dir)."""
    files: set[str] = set()
    for spec in manifest.get("tables", {}).values():
        for shard in spec.get("shards", []):
            files.add(str(shard["file"]))
    return files
