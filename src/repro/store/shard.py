"""The on-disk shard file format: header + checksummed float32 rows.

A shard holds a contiguous row range of one embedding table::

    offset 0   magic            b"KGSHARD1"              (8 bytes)
    offset 8   header length    uint32 little-endian     (4 bytes)
    offset 12  header           UTF-8 JSON, then spaces  (header_len bytes)
    offset 12+header_len        payload: rows * dim float32, little-endian,
                                row-major

The writer pads the JSON with trailing spaces (which JSON ignores and
``header_len`` counts) so the payload starts on a 64-byte boundary: a
memory-mapped shard is then an aligned float32 array, which NumPy
gathers from on its fast path.  Files from the unpadded writer parse,
verify and map exactly as before — their maps are merely unaligned.

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
import os
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
    "encode_shard",
    "write_shard",
    "verify_shard",
    "load_shard",
    "map_payload",
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


def encode_shard(
    file: str,
    table: str,
    row_start: int,
    values: np.ndarray,
    seed: int | None = None,
) -> tuple[ShardInfo, bytes]:
    """The bytes of ``values`` (2-d, cast to float32) as shard ``file``,
    and the :class:`ShardInfo` the manifest should record for it."""
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
    # Trailing spaces put the payload on a 64-byte (cache-line) boundary.
    prefix = len(SHARD_MAGIC) + _LEN_STRUCT.size
    blob += b" " * (-(prefix + len(blob)) % 64)
    info = ShardInfo(
        file=file, row_start=int(row_start), rows=int(values.shape[0]), crc32=crc
    )
    return info, SHARD_MAGIC + _LEN_STRUCT.pack(len(blob)) + blob + payload


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
    info, data = encode_shard(path.name, table, row_start, values, seed=seed)
    tmp = path.with_name(path.name + ".tmp")
    io.write_bytes(tmp, data)
    io.replace(tmp, path)
    return info


def _parse_header(name: str, data: bytes) -> tuple[dict, int]:
    """Parse and sanity-check the header at the front of ``data`` (a whole
    shard file); returns ``(header, payload_offset)``."""
    prefix = len(SHARD_MAGIC) + _LEN_STRUCT.size
    if len(data) < prefix:
        raise StoreCorruptionError(f"{name}: truncated before header")
    if data[: len(SHARD_MAGIC)] != SHARD_MAGIC:
        raise StoreCorruptionError(f"{name}: bad magic")
    (header_len,) = _LEN_STRUCT.unpack_from(data, len(SHARD_MAGIC))
    if header_len > 1 << 20:
        raise StoreCorruptionError(f"{name}: implausible header length")
    offset = prefix + header_len
    if len(data) < offset:
        raise StoreCorruptionError(f"{name}: truncated header")
    try:
        header = json.loads(data[prefix:offset].decode("utf-8"))
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
    except (TypeError, ValueError) as exc:
        raise StoreCorruptionError(
            f"{name}: non-numeric header field ({exc})"
        ) from exc
    if bounds[0] < 0 or bounds[1] < 1 or bounds[2] < 1:
        raise StoreCorruptionError(
            f"{name}: implausible shard bounds "
            f"row_start={bounds[0]} rows={bounds[1]} dim={bounds[2]}"
        )
    return header, offset


def _read_file(path: Path) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise StoreCorruptionError(f"{path.name}: unreadable ({exc})") from exc


def _verify_bytes(
    name: str, data: bytes, expected: ShardInfo | None, dim: int | None
) -> tuple[dict, int]:
    """:func:`verify_shard` over a whole file's bytes."""
    header, offset = _parse_header(name, data)
    rows, width = int(header["rows"]), int(header["dim"])
    expected_bytes = rows * width * 4
    payload = memoryview(data)[offset:]
    if len(payload) != expected_bytes:
        raise StoreCorruptionError(
            f"{name}: payload is {len(payload)} bytes, "
            f"expected {expected_bytes} (torn write?)"
        )
    crc = zlib.crc32(payload)
    if crc != int(header["crc32"]):
        raise StoreCorruptionError(
            f"{name}: payload checksum {crc} != header checksum "
            f"{header['crc32']} (bitrot?)"
        )
    if expected is not None:
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


def verify_shard(
    path: str | Path,
    expected: ShardInfo | None = None,
    dim: int | None = None,
) -> tuple[dict, int]:
    """Full verification: header, payload length, and content CRC-32.

    Reads the file once.  ``expected`` cross-checks the manifest's view of
    the shard (row range and CRC); ``dim`` cross-checks the table's width.
    Returns ``(header, payload_offset)`` on success, raises
    :class:`StoreCorruptionError` otherwise.
    """
    path = Path(path)
    return _verify_bytes(path.name, _read_file(path), expected, dim)


def load_shard(
    path: str | Path,
    expected: ShardInfo | None = None,
    dim: int | None = None,
) -> tuple[dict, np.ndarray]:
    """Read a shard into memory; returns ``(header, float32 rows array)``.

    One read of the file: the values are decoded from the bytes
    :func:`verify_shard`'s checks (``expected``, ``dim`` as there) ran on.
    """
    path = Path(path)
    data = _read_file(path)
    header, offset = _verify_bytes(path.name, data, expected, dim)
    rows, dim = int(header["rows"]), int(header["dim"])
    values = np.frombuffer(data, dtype=_DTYPE, count=rows * dim, offset=offset)
    return header, values.reshape(rows, dim).copy()


def map_payload(path: str | Path, offset: int, rows: int, dim: int) -> np.ndarray:
    """Memory-map ``rows x dim`` float32 rows at byte ``offset``, read-only.

    The result is a plain ``ndarray`` view of the ``np.memmap`` (its
    ``base``), so indexing it builds no ``memmap`` subclass objects.  No
    header read and no checksum pass: ``offset`` comes from a
    :func:`verify_shard` of the same file.
    """
    # A str, not a Path: np.memmap resolves a Path through the filesystem
    # (an lstat per path component) only to record its name.
    mapped = np.memmap(
        os.fspath(path), dtype=_DTYPE, mode="r", offset=offset, shape=(rows, dim)
    )
    return mapped.view(np.ndarray)
