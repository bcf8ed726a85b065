"""Crash-safe sharded embedding store.

Layered bottom-up:

* :mod:`repro.store.io` — the two byte-level durability primitives
  (fsync'd temp write, atomic rename) plus their fault-injecting twin;
* :mod:`repro.store.shard` — the checksummed shard record format and
  the segment files that hold the records;
* :mod:`repro.store.manifest` — versioned JSON manifests, whose atomic
  rename is the store's single commit point;
* :mod:`repro.store.mmap` — :class:`MmapShardStore`, the durable
  implementation (incremental commits, verified recovery, zero-copy
  generation views for promotion/rollback);
* :mod:`repro.store.verify` — fsck: inspect / quarantine / repair,
  behind ``python -m repro store-verify``;
* :mod:`repro.store.serving` — :class:`StoredEmbeddingRecommender`,
  scoring straight off a serve-mode store;
* :mod:`repro.store.harness` — the fault-injected durability harness
  (crash matrix over every IO operation): the store cells of
  ``python -m repro fault-matrix``.

The format and protocol are specified in ``docs/storage.md``.
"""

from __future__ import annotations

from .io import FaultingStoreIO, IOOp, RecordingStoreIO, StoreIO
from .manifest import load_manifest, scan_manifests
from .mmap import MmapShardStore, ShardedTable
from .serving import StoredEmbeddingRecommender
from .shard import ShardInfo, map_segment, record_values, verify_record
from .verify import (
    GenerationStatus,
    ShardStatus,
    StoreReport,
    inspect_store,
    quarantine_debris,
    render_report,
    repair_store,
)

__all__ = [
    "MmapShardStore",
    "ShardedTable",
    "StoredEmbeddingRecommender",
    "StoreIO",
    "RecordingStoreIO",
    "FaultingStoreIO",
    "IOOp",
    "ShardInfo",
    "map_segment",
    "verify_record",
    "record_values",
    "load_manifest",
    "scan_manifests",
    "inspect_store",
    "render_report",
    "quarantine_debris",
    "repair_store",
    "StoreReport",
    "GenerationStatus",
    "ShardStatus",
]
