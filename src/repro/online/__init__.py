"""Online learning loop: continuous deployment of live embeddings.

The online subsystem closes the loop the serving stack left open:
interactions observed *while serving* flow back into the model without
downtime, through a crash-safe pipeline built entirely from existing
layers —

* :mod:`repro.online.stream` — a seeded, sessionized interaction feed
  with cold-start newcomers and new catalog items (churn);
* :mod:`repro.online.trainer` — a shadow trainer applying validated
  sparse-row BPR updates to a train-mode
  :class:`~repro.store.mmap.MmapShardStore` (coalesced
  :class:`~repro.autograd.sparse.SparseGrad` row gradients, committed as
  dirty rows only);
* :mod:`repro.online.loop` — the deployment loop: commit a generation,
  open a pinned serve view, canary-validate and atomically promote
  through the :class:`~repro.serving.registry.ModelRegistry` (which
  rebuilds the retrieval index through ``sync_index`` before the swap),
  watch, and roll back regressions;
* :mod:`repro.online.harness` — the churn matrix replaying seeded
  stream x fault scenarios with bitwise old-or-new assertions: the
  online cells of ``python -m repro fault-matrix``.

See ``docs/online.md`` for the architecture and the fault matrix.
"""

from repro.online.loop import (
    BatchOutcome,
    ChaosCandidate,
    OnlineLoop,
    PromotionCycle,
    make_candidate,
)
from repro.online.stream import InteractionBatch, InteractionStream, StreamConfig
from repro.online.trainer import ENTITY_TABLE, ManifestCrashIO, ShadowTrainer

__all__ = [
    "BatchOutcome",
    "ChaosCandidate",
    "ENTITY_TABLE",
    "InteractionBatch",
    "InteractionStream",
    "ManifestCrashIO",
    "OnlineLoop",
    "PromotionCycle",
    "ShadowTrainer",
    "StreamConfig",
    "make_candidate",
]
