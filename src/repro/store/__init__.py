"""Crash-safe sharded embedding store.

Layered bottom-up:

* :mod:`repro.store.io` — the two byte-level durability primitives
  (fsync'd temp write, atomic rename) plus their fault-injecting twin;
* :mod:`repro.store.shard` — the checksummed shard file format;
* :mod:`repro.store.manifest` — versioned JSON manifests, whose atomic
  rename is the store's single commit point;
* :mod:`repro.store.base` — the :class:`EmbeddingStore` interface and
  the in-memory :class:`DenseStore` default;
* :mod:`repro.store.mmap` — :class:`MmapShardStore`, the durable
  implementation (incremental commits, verified recovery, zero-copy
  generation remap for promotion/rollback);
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

from .base import DenseStore, EmbeddingStore
from .io import FaultingStoreIO, IOOp, RecordingStoreIO, StoreIO
from .manifest import load_manifest, scan_manifests
from .mmap import MmapShardStore, ShardedTable
from .serving import StoredEmbeddingRecommender
from .shard import ShardInfo, load_shard, map_payload, verify_shard, write_shard
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
    "EmbeddingStore",
    "DenseStore",
    "MmapShardStore",
    "ShardedTable",
    "StoredEmbeddingRecommender",
    "StoreIO",
    "RecordingStoreIO",
    "FaultingStoreIO",
    "IOOp",
    "ShardInfo",
    "write_shard",
    "verify_shard",
    "load_shard",
    "map_payload",
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
