"""The on-disk shard record format: header + checksummed float32 rows.

A shard record holds a contiguous row range of one embedding table::

    +0   magic            b"KGSHARD1"              (8 bytes)
    +8   header length    uint32 little-endian     (4 bytes)
    +12  header           UTF-8 JSON, then spaces  (header_len bytes)
    +12+header_len        payload: rows * dim float32, little-endian,
                          row-major

The writer pads the JSON with trailing spaces (which JSON ignores and
``header_len`` counts) so the payload starts a multiple of 64 bytes
into the record: a record that itself starts on a 64-byte boundary maps
as an aligned float32 array, which NumPy gathers from on its fast path.
Records from the unpadded writer parse, verify and map exactly as
before — their maps are merely unaligned.

Records live in *segment* files.  A commit writes one segment holding
each of its records at a 64-byte-aligned offset (each record is padded
with zero bytes to a multiple of 64 and the records are concatenated);
a record is addressed by ``(file, offset)`` (:class:`ShardInfo`).  A
file of the one-record-per-file layout is a segment with one record at
offset 0, so both read through the same functions.

The JSON header carries ``version`` (format schema), ``table``,
``row_start`` / ``rows`` / ``dim`` (the slice this record covers),
``dtype`` (always ``"<f4"`` in v1), ``seed`` (provenance of the run that
wrote it) and ``crc32`` — the zlib CRC-32 of the *payload* bytes.  The
manifest (:mod:`repro.store.manifest`) records the same CRC per record,
so a record can be verified standalone *and* cross-checked against the
generation that references it.

All verification failures raise
:class:`~repro.core.exceptions.StoreCorruptionError` with the reason;
callers decide whether that quarantines a segment or fails a generation.
"""

from __future__ import annotations

import json
import mmap
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.exceptions import StoreCorruptionError

__all__ = [
    "SHARD_MAGIC",
    "SHARD_VERSION",
    "RECORD_ALIGN",
    "ShardInfo",
    "encode_shard",
    "map_segment",
    "verify_record",
    "record_values",
]

SHARD_MAGIC = b"KGSHARD1"
SHARD_VERSION = 1
#: Records start (and payloads are aligned) on this many bytes.
RECORD_ALIGN = 64
_DTYPE = "<f4"  # float32 little-endian; the only payload dtype in v1
_LEN_STRUCT = struct.Struct("<I")


@dataclass(frozen=True)
class ShardInfo:
    """Manifest-side description of one shard record: the segment
    ``file`` holding it and the byte ``offset`` it starts at."""

    file: str
    row_start: int
    rows: int
    crc32: int
    offset: int = 0

    @property
    def record(self) -> str:
        """The record's name in reports: ``<segment>@<offset>``."""
        return f"{self.file}@{self.offset}"

    def to_json(self) -> dict:
        return {
            "file": self.file,
            "offset": self.offset,
            "row_start": self.row_start,
            "rows": self.rows,
            "crc32": self.crc32,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ShardInfo":
        """Parse a manifest entry; a schema-1 entry (no ``offset``) names
        a one-record file, whose record starts at offset 0."""
        return cls(
            file=str(obj["file"]),
            row_start=int(obj["row_start"]),
            rows=int(obj["rows"]),
            crc32=int(obj["crc32"]),
            offset=int(obj.get("offset", 0)),
        )


def encode_shard(
    file: str,
    table: str,
    row_start: int,
    values: np.ndarray,
    seed: int | None = None,
    offset: int = 0,
) -> tuple[ShardInfo, bytes]:
    """The record bytes of ``values`` (2-d, cast to float32), and the
    :class:`ShardInfo` the manifest should record for it at ``offset``
    of segment ``file``."""
    values = np.ascontiguousarray(values, dtype=_DTYPE)
    if values.ndim != 2:
        raise StoreCorruptionError(f"shard values must be 2-d, got {values.ndim}-d")
    crc = zlib.crc32(values)
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
    # Trailing spaces put the payload on a 64-byte (cache-line) boundary.
    prefix = len(SHARD_MAGIC) + _LEN_STRUCT.size
    blob += b" " * (-(prefix + len(blob)) % RECORD_ALIGN)
    info = ShardInfo(
        file=file, row_start=int(row_start), rows=int(values.shape[0]),
        crc32=crc, offset=int(offset),
    )
    data = b"".join((SHARD_MAGIC, _LEN_STRUCT.pack(len(blob)), blob, values))
    return info, data


def map_segment(path: str | Path) -> np.ndarray:
    """Memory-map a whole segment file read-only, as a ``uint8`` array.

    Every record of the segment verifies from, and every view of it
    slices, this one map; nothing is copied.  The map is released when
    the last array over it is.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except ValueError as exc:  # an empty file cannot be mapped
        raise StoreCorruptionError(f"{path.name}: truncated before header") from exc
    except FileNotFoundError as exc:
        raise StoreCorruptionError(f"{path.name}: missing") from exc
    except OSError as exc:
        raise StoreCorruptionError(f"{path.name}: unreadable ({exc})") from exc
    return np.frombuffer(mapped, dtype=np.uint8)


def _parse_header(name: str, data: memoryview, start: int) -> tuple[dict, int]:
    """Parse and sanity-check the header of the record at byte ``start``
    of ``data`` (a segment's bytes); returns ``(header, payload_offset)``."""
    prefix = start + len(SHARD_MAGIC) + _LEN_STRUCT.size
    if len(data) < prefix:
        raise StoreCorruptionError(f"{name}: truncated before header")
    if data[start : start + len(SHARD_MAGIC)] != SHARD_MAGIC:
        raise StoreCorruptionError(f"{name}: bad magic")
    (header_len,) = _LEN_STRUCT.unpack_from(data, start + len(SHARD_MAGIC))
    if header_len > 1 << 20:
        raise StoreCorruptionError(f"{name}: implausible header length")
    offset = prefix + header_len
    if len(data) < offset:
        raise StoreCorruptionError(f"{name}: truncated header")
    try:
        header = json.loads(data[prefix:offset].tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreCorruptionError(f"{name}: corrupt header ({exc})") from exc
    if header.get("version") != SHARD_VERSION:
        raise StoreCorruptionError(
            f"{name}: unsupported shard version {header.get('version')!r}"
        )
    if header.get("dtype") != _DTYPE:
        raise StoreCorruptionError(
            f"{name}: unsupported dtype {header.get('dtype')!r}"
        )
    # A flipped byte inside the JSON can mutate a key or value while still
    # parsing — a header is only trusted once every required field is
    # present with a sane value.
    for key in ("table", "row_start", "rows", "dim", "crc32"):
        if key not in header:
            raise StoreCorruptionError(f"{name}: header missing {key!r}")
    try:
        bounds = [int(header[k]) for k in ("row_start", "rows", "dim", "crc32")]
    except (TypeError, ValueError, OverflowError) as exc:
        raise StoreCorruptionError(
            f"{name}: non-numeric header field ({exc})"
        ) from exc
    if bounds[0] < 0 or bounds[1] < 1 or bounds[2] < 1:
        raise StoreCorruptionError(
            f"{name}: implausible shard bounds "
            f"row_start={bounds[0]} rows={bounds[1]} dim={bounds[2]}"
        )
    return header, offset


def verify_record(
    data,
    expected: ShardInfo,
    dim: int | None = None,
) -> tuple[dict, int]:
    """Full verification of the record ``expected`` names inside ``data``
    (its segment's bytes, e.g. a :func:`map_segment`): header, payload
    length, and content CRC-32.

    The header must agree with the manifest's view of the record (row
    range and CRC); ``dim`` cross-checks the table's width.  Returns
    ``(header, payload_offset)`` — the payload's byte offset in ``data``
    — on success, raises :class:`StoreCorruptionError` otherwise.
    """
    name = expected.record
    data = memoryview(data).cast("B")
    if not 0 <= expected.offset < len(data):
        raise StoreCorruptionError(
            f"{name}: offset {expected.offset} outside the {len(data)}-byte "
            "segment (torn write?)"
        )
    header, offset = _parse_header(name, data, expected.offset)
    rows, width = int(header["rows"]), int(header["dim"])
    expected_bytes = rows * width * 4
    available = len(data) - offset
    if available < expected_bytes:
        raise StoreCorruptionError(
            f"{name}: payload is {available} bytes, "
            f"expected {expected_bytes} (torn write?)"
        )
    crc = zlib.crc32(data[offset : offset + expected_bytes])
    if crc != int(header["crc32"]):
        raise StoreCorruptionError(
            f"{name}: payload checksum {crc} != header checksum "
            f"{header['crc32']} (bitrot?)"
        )
    if (
        int(header["row_start"]) != expected.row_start
        or rows != expected.rows
        or crc != expected.crc32
    ):
        raise StoreCorruptionError(
            f"{name}: header disagrees with manifest "
            f"(rows {header['row_start']}+{rows} crc {crc} vs manifest "
            f"rows {expected.row_start}+{expected.rows} crc {expected.crc32})"
        )
    if dim is not None and width != dim:
        raise StoreCorruptionError(
            f"{name}: shard dim {width} != table dim {dim}"
        )
    return header, offset


def record_values(segment: np.ndarray, offset: int, rows: int, dim: int) -> np.ndarray:
    """The ``rows x dim`` float32 payload at byte ``offset`` of a
    :func:`map_segment` array, as a read-only view (no copy).  No header
    read and no checksum pass: ``offset`` comes from a
    :func:`verify_record` of the same segment."""
    payload = segment[offset : offset + rows * dim * 4]
    return payload.view(_DTYPE).reshape(rows, dim)
