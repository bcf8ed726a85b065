"""The on-disk shard file format: header + checksummed float32 rows.

A shard holds a contiguous row range of one embedding table::

    offset 0   magic            b"KGSHARD1"              (8 bytes)
    offset 8   header length    uint32 little-endian     (4 bytes)
    offset 12  header           UTF-8 JSON               (header_len bytes)
    offset 12+header_len        payload: rows * dim float32, little-endian,
                                row-major

The JSON header carries ``version`` (format schema), ``table``,
``row_start`` / ``rows`` / ``dim`` (the slice this shard covers),
``dtype`` (always ``"<f4"`` in v1), ``seed`` (provenance of the run that
wrote it) and ``crc32`` — the zlib CRC-32 of the *payload* bytes.  The
manifest (:mod:`repro.store.manifest`) records the same CRC per shard, so
a shard can be verified standalone *and* cross-checked against the
generation that references it.

All verification failures raise
:class:`~repro.core.exceptions.StoreCorruptionError` with the reason;
callers decide whether that quarantines a shard or fails a generation.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.exceptions import StoreCorruptionError

from .io import StoreIO

__all__ = [
    "SHARD_MAGIC",
    "SHARD_VERSION",
    "ShardInfo",
    "write_shard",
    "read_shard_header",
    "verify_shard",
    "load_shard",
    "map_shard",
]

SHARD_MAGIC = b"KGSHARD1"
SHARD_VERSION = 1
_DTYPE = "<f4"  # float32 little-endian; the only payload dtype in v1
_LEN_STRUCT = struct.Struct("<I")


@dataclass(frozen=True)
class ShardInfo:
    """Manifest-side description of one shard file."""

    file: str
    row_start: int
    rows: int
    crc32: int

    def to_json(self) -> dict:
        return {
            "file": self.file,
            "row_start": self.row_start,
            "rows": self.rows,
            "crc32": self.crc32,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ShardInfo":
        return cls(
            file=str(obj["file"]),
            row_start=int(obj["row_start"]),
            rows=int(obj["rows"]),
            crc32=int(obj["crc32"]),
        )


def write_shard(
    io: StoreIO,
    path: str | Path,
    table: str,
    row_start: int,
    values: np.ndarray,
    seed: int | None = None,
) -> ShardInfo:
    """Write ``values`` (2-d, cast to float32) as the shard at ``path``.

    The write is crash-safe: the full blob goes to ``<path>.tmp`` (written
    + fsync'd through ``io``), then is atomically renamed over ``path``.
    Returns the :class:`ShardInfo` the manifest should record.
    """
    path = Path(path)
    values = np.ascontiguousarray(values, dtype=_DTYPE)
    if values.ndim != 2:
        raise StoreCorruptionError(f"shard values must be 2-d, got {values.ndim}-d")
    payload = values.tobytes()
    crc = zlib.crc32(payload)
    header = {
        "version": SHARD_VERSION,
        "table": table,
        "row_start": int(row_start),
        "rows": int(values.shape[0]),
        "dim": int(values.shape[1]),
        "dtype": _DTYPE,
        "seed": seed,
        "crc32": crc,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    data = SHARD_MAGIC + _LEN_STRUCT.pack(len(blob)) + blob + payload
    tmp = path.with_name(path.name + ".tmp")
    io.write_bytes(tmp, data)
    io.replace(tmp, path)
    return ShardInfo(
        file=path.name, row_start=int(row_start), rows=int(values.shape[0]), crc32=crc
    )


def read_shard_header(path: str | Path) -> tuple[dict, int]:
    """Parse and sanity-check the header; returns ``(header, payload_offset)``."""
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            prefix = handle.read(len(SHARD_MAGIC) + _LEN_STRUCT.size)
            if len(prefix) < len(SHARD_MAGIC) + _LEN_STRUCT.size:
                raise StoreCorruptionError(f"{path.name}: truncated before header")
            if prefix[: len(SHARD_MAGIC)] != SHARD_MAGIC:
                raise StoreCorruptionError(f"{path.name}: bad magic")
            (header_len,) = _LEN_STRUCT.unpack(prefix[len(SHARD_MAGIC) :])
            if header_len > 1 << 20:
                raise StoreCorruptionError(f"{path.name}: implausible header length")
            blob = handle.read(header_len)
            if len(blob) < header_len:
                raise StoreCorruptionError(f"{path.name}: truncated header")
    except OSError as exc:
        raise StoreCorruptionError(f"{path.name}: unreadable ({exc})") from exc
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreCorruptionError(f"{path.name}: corrupt header ({exc})") from exc
    if header.get("version") != SHARD_VERSION:
        raise StoreCorruptionError(
            f"{path.name}: unsupported shard version {header.get('version')!r}"
        )
    if header.get("dtype") != _DTYPE:
        raise StoreCorruptionError(
            f"{path.name}: unsupported dtype {header.get('dtype')!r}"
        )
    # A flipped byte inside the JSON can mutate a key or value while still
    # parsing — a header is only trusted once every required field is
    # present with a sane value.
    for key in ("table", "row_start", "rows", "dim", "crc32"):
        if key not in header:
            raise StoreCorruptionError(f"{path.name}: header missing {key!r}")
    try:
        bounds = [int(header[k]) for k in ("row_start", "rows", "dim", "crc32")]
    except (TypeError, ValueError) as exc:
        raise StoreCorruptionError(
            f"{path.name}: non-numeric header field ({exc})"
        ) from exc
    if bounds[0] < 0 or bounds[1] < 1 or bounds[2] < 1:
        raise StoreCorruptionError(
            f"{path.name}: implausible shard bounds "
            f"row_start={bounds[0]} rows={bounds[1]} dim={bounds[2]}"
        )
    return header, len(SHARD_MAGIC) + _LEN_STRUCT.size + header_len


def verify_shard(
    path: str | Path,
    expected: ShardInfo | None = None,
    dim: int | None = None,
) -> dict:
    """Full verification: header, payload length, and content CRC-32.

    ``expected`` cross-checks the manifest's view of the shard (row range
    and CRC); ``dim`` cross-checks the table's width.  Returns the parsed
    header on success, raises :class:`StoreCorruptionError` otherwise.
    """
    path = Path(path)
    header, offset = read_shard_header(path)
    rows, width = int(header["rows"]), int(header["dim"])
    expected_bytes = rows * width * 4
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            payload = handle.read(expected_bytes + 1)
    except OSError as exc:
        raise StoreCorruptionError(f"{path.name}: unreadable payload ({exc})") from exc
    if len(payload) != expected_bytes:
        raise StoreCorruptionError(
            f"{path.name}: payload is {len(payload)} bytes, "
            f"expected {expected_bytes} (torn write?)"
        )
    crc = zlib.crc32(payload)
    if crc != int(header["crc32"]):
        raise StoreCorruptionError(
            f"{path.name}: payload checksum {crc} != header checksum "
            f"{header['crc32']} (bitrot?)"
        )
    if expected is not None:
        if (
            int(header["row_start"]) != expected.row_start
            or rows != expected.rows
            or crc != expected.crc32
        ):
            raise StoreCorruptionError(
                f"{path.name}: header disagrees with manifest "
                f"(rows {header['row_start']}+{rows} crc {crc} vs manifest "
                f"rows {expected.row_start}+{expected.rows} crc {expected.crc32})"
            )
    if dim is not None and width != dim:
        raise StoreCorruptionError(
            f"{path.name}: shard dim {width} != table dim {dim}"
        )
    return header


def load_shard(path: str | Path, verify: bool = True) -> tuple[dict, np.ndarray]:
    """Read a shard into memory; returns ``(header, float32 rows array)``."""
    path = Path(path)
    if verify:
        verify_shard(path)
    header, offset = read_shard_header(path)
    rows, dim = int(header["rows"]), int(header["dim"])
    with open(path, "rb") as handle:
        handle.seek(offset)
        payload = handle.read(rows * dim * 4)
    values = np.frombuffer(payload, dtype=_DTYPE).reshape(rows, dim)
    return header, values.copy()


def map_shard(path: str | Path) -> tuple[dict, np.ndarray]:
    """Memory-map a shard's payload read-only; returns ``(header, rows)``.

    ``rows`` is a plain ``ndarray`` view of the ``np.memmap`` (its
    ``base``), so indexing it builds no ``memmap`` subclass objects.  No
    checksum pass — callers verify first (recovery does, on open) so the
    map itself moves zero payload bytes.
    """
    path = Path(path)
    header, offset = read_shard_header(path)
    rows, dim = int(header["rows"]), int(header["dim"])
    mapped = np.memmap(path, dtype=_DTYPE, mode="r", offset=offset, shape=(rows, dim))
    return header, mapped.view(np.ndarray)
