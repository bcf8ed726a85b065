"""Shared training machinery for knowledge graph embedding models.

The survey (Section 4.1) divides KGE into *translation distance* models
(TransE/H/R/D) trained with a margin ranking loss over corrupted triples,
and *semantic matching* models (DistMult, ComplEx) trained with a logistic
loss.  :class:`KGEModel` implements both regimes; subclasses only define
embeddings and a differentiable triple score.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

from repro.autograd import Adam, losses, nn, ops
from repro.autograd.sparse import SparseGrad
from repro.autograd.tensor import Tensor
from repro.core.exceptions import ConfigError
from repro.core.rng import ensure_rng
from repro.kg.sampling import corrupt_batch
from repro.kg.triples import TripleStore
from repro.runtime.guards import grad_norm
from repro.telemetry.base import get_active

if TYPE_CHECKING:  # pragma: no cover - import is type-only to avoid a cycle
    from repro.runtime import TrainingRuntime
    from repro.store.mmap import MmapShardStore

__all__ = ["KGEModel"]


class KGEModel(nn.Module, abc.ABC):
    """Base class for KGE models.

    Parameters
    ----------
    num_entities, num_relations:
        Id-space sizes of the graph to embed.
    dim:
        Embedding dimensionality ``d``.
    seed:
        Seed for parameter initialization and training randomness.
    store:
        Optional train-mode :class:`~repro.store.mmap.MmapShardStore`
        backing the entity and relation tables.  It makes the tables
        durable: it warm-starts them from disk at registration and
        receives per-step dirty-row marks so commits persist only touched
        shards.  Without one (the default) the model trains on its own
        ``nn.Embedding`` arrays.
    """

    #: "margin" (translation distance) or "logistic" (semantic matching).
    loss_type: str = "margin"
    #: Renormalize entity rows to unit norm after each step (TransE-style).
    normalize_entities: bool = False

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        dim: int = 16,
        seed=None,
        store: "MmapShardStore | None" = None,
    ) -> None:
        if dim < 1:
            raise ConfigError("embedding dim must be >= 1")
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.dim = dim
        self._rng = ensure_rng(seed)
        self.entity = nn.Embedding(num_entities, dim, seed=self._rng)
        self.relation = nn.Embedding(num_relations, dim, seed=self._rng)
        self.store = store
        if store is not None:
            store.register("entity", self.entity.weight.data)
            store.register("relation", self.relation.weight.data)
        self._fitted = False
        self._build(self._rng)

    def _build(self, rng: np.random.Generator) -> None:
        """Hook for subclasses that need extra parameters."""

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def score(self, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray) -> Tensor:
        """Differentiable plausibility of triples; higher = more plausible.

        Translation models return the *negated* (squared) distance so the
        same convention works for ranking and for the logistic loss.
        """

    # ------------------------------------------------------------------ #
    def score_triples(
        self, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray
    ) -> np.ndarray:
        """NumPy plausibility scores (no gradient tracking)."""
        return self.score(
            np.asarray(heads, dtype=np.int64),
            np.asarray(relations, dtype=np.int64),
            np.asarray(tails, dtype=np.int64),
        ).numpy()

    def entity_embeddings(self) -> np.ndarray:
        """The learned entity matrix ``(num_entities, dim)`` (no copy)."""
        return self.entity.weight.data

    def relation_embeddings(self) -> np.ndarray:
        return self.relation.weight.data

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    # ------------------------------------------------------------------ #
    def fit(
        self,
        store: TripleStore,
        epochs: int = 30,
        batch_size: int = 256,
        lr: float = 0.02,
        margin: float = 1.0,
        weight_decay: float = 1e-5,
        seed=None,
        runtime: "TrainingRuntime | None" = None,
        max_grad_norm: float | None = None,
        skip_nonfinite: str = "off",
    ) -> list[float]:
        """Train on all facts in ``store``; returns per-epoch mean loss.

        ``runtime`` threads the resilience layer through the loop (see
        :mod:`repro.runtime` and ``docs/robustness.md``): fault injection
        fires before each optimizer step, the divergence detector observes
        every batch loss, and the checkpointer snapshots parameters +
        optimizer + RNG state at epoch boundaries.  When the checkpoint
        directory already holds a snapshot, training *resumes* from the
        epoch after it — replaying the exact RNG stream, so an interrupted
        run converges to bitwise-identical parameters.

        ``max_grad_norm`` / ``skip_nonfinite`` are forwarded to the
        optimizer (see :class:`repro.autograd.optim.Optimizer`).
        Embedding gradients stay row-sparse and the optimizer applies lazy
        row-wise updates, so a step costs O(batch * dim) regardless of the
        table sizes.

        The active telemetry (installed with
        :func:`repro.telemetry.activated`) records the training run: a
        ``fit`` span wrapping ``fit/epoch`` and ``fit/batch`` spans,
        per-batch loss and gradient-norm gauges, and nested spans from
        negative sampling and optimizer steps (see
        ``docs/observability.md``).  Telemetry only observes: with it on or
        off, the learned parameters and returned history are bitwise
        identical, and the disabled path costs one boolean check per batch.
        """
        if store.num_triples == 0:
            raise ConfigError("cannot fit a KGE model on an empty triple store")
        rng = ensure_rng(seed if seed is not None else self._rng)
        params = self.parameters()
        optimizer = Adam(
            params,
            lr=lr,
            weight_decay=weight_decay,
            max_grad_norm=max_grad_norm,
            skip_nonfinite=skip_nonfinite,
        )
        history: list[float] = []
        start_epoch = 0
        if runtime is not None:
            snapshot = runtime.resume(params, optimizer=optimizer, rng=rng)
            if snapshot is not None:
                start_epoch = snapshot.step + 1
                history = [float(v) for v in snapshot.extra.get("history", [])]
        tel = get_active()
        enabled = tel.enabled
        n = store.num_triples
        batches_per_epoch = (n + batch_size - 1) // batch_size
        step = start_epoch * batches_per_epoch
        if enabled:
            fit_span = tel.begin(
                "fit", model=type(self).__name__, epochs=epochs,
                start_epoch=start_epoch, triples=n, batch_size=batch_size,
            )
            loss_gauge = tel.gauge("fit.loss", model=type(self).__name__)
            grad_gauge = tel.gauge("fit.grad_norm", model=type(self).__name__)
            batch_counter = tel.counter("fit.batches")
        try:
            for epoch in range(start_epoch, epochs):
                if enabled:
                    epoch_span = tel.begin("fit/epoch", epoch=epoch)
                perm = rng.permutation(n)
                total = 0.0
                for start in range(0, n, batch_size):
                    if enabled:
                        batch_span = tel.begin("fit/batch", step=step)
                    idx = perm[start : start + batch_size]
                    loss = self._batch_loss(store, idx, rng, margin)
                    optimizer.zero_grad()
                    loss.backward()
                    if runtime is not None:
                        runtime.before_step(step, params)
                    optimizer.step()
                    if self.store is not None and self.store.track_dirty:
                        self._mark_store_dirty()
                    if self.normalize_entities:
                        self._renormalize()
                    loss_value = loss.item()
                    if runtime is not None:
                        runtime.observe_loss(loss_value)
                    total += loss_value * idx.size
                    step += 1
                    if enabled:
                        loss_gauge.set(loss_value)
                        grad_gauge.set(grad_norm(params))
                        batch_counter.inc()
                        tel.end(batch_span, loss=loss_value)
                history.append(total / n)
                if enabled:
                    tel.counter("fit.epochs").inc()
                    tel.end(epoch_span, mean_loss=history[-1])
                if runtime is not None:
                    runtime.maybe_checkpoint(
                        epoch, params, optimizer=optimizer, rng=rng,
                        extra={"history": history},
                    )
        finally:
            if enabled:
                tel.end(fit_span, epochs_run=len(history) - start_epoch)
        self._fitted = True
        return history

    def _batch_loss(
        self,
        store: TripleStore,
        idx: np.ndarray,
        rng: np.random.Generator,
        margin: float,
    ) -> Tensor:
        pos_h, pos_r, pos_t = store.heads[idx], store.relations[idx], store.tails[idx]
        neg_h, neg_r, neg_t = corrupt_batch(store, idx, rng)
        pos = self.score(pos_h, pos_r, pos_t)
        neg = self.score(neg_h, neg_r, neg_t)
        if self.loss_type == "margin":
            # score = -distance, so the hinge is margin + d(pos) - d(neg)
            return losses.margin_ranking_loss(-pos, -neg, margin=margin)
        if self.loss_type == "logistic":
            return (ops.softplus(-pos) + ops.softplus(neg)).mean()
        raise ConfigError(f"unknown loss_type {self.loss_type!r}")

    def _mark_store_dirty(self) -> None:
        """Feed this step's touched rows to the store's dirty tracking.

        The sparse row gradients are exactly the dirty-tracking
        wire format: after ``optimizer.step()`` the raw gradient of each
        embedding table still lists every row the step updated.  A dense
        gradient (a densifying op in the score function, or a ``p.grad``
        read before the step) falls back to marking the whole table.
        """
        for name, weight in (("entity", self.entity.weight),
                             ("relation", self.relation.weight)):
            g = weight.raw_grad
            if g is None:
                continue
            if isinstance(g, SparseGrad):
                self.store.mark_dirty(name, g.rows)
            else:
                self.store.mark_dirty(name)

    def _renormalize(self) -> None:
        w = self.entity.weight.data
        norms = np.linalg.norm(w, axis=1, keepdims=True)
        if self.store is not None and self.store.track_dirty:
            # Rows at/below unit norm divide by 1.0 and keep their bits;
            # only rows actually shrunk need to reach the next commit.
            changed = np.nonzero(norms.ravel() > 1.0)[0]
            if changed.size:
                self.store.mark_dirty("entity", changed)
        np.divide(w, np.maximum(norms, 1.0), out=w)
