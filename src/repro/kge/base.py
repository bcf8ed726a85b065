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
from repro.runtime.loop import train_epochs

if TYPE_CHECKING:  # pragma: no cover - import is type-only to avoid a cycle
    from repro.runtime import TrainingRuntime
    from repro.store.mmap import MmapShardStore

__all__ = ["KGEModel"]

WEIGHT_DECAY = 1e-5  # decoupled L2 shrinkage of Adam's updates
MARGIN = 1.0  # hinge margin of the translation models' ranking loss


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
        seed=None,
        runtime: "TrainingRuntime | None" = None,
    ) -> list[float]:
        """Train on all facts in ``store``; returns per-epoch mean loss.

        Trains through :func:`repro.runtime.loop.train_epochs`; ``runtime``
        adds fault injection, divergence detection and checkpoint/resume
        (``docs/robustness.md``).  Embedding gradients stay row-sparse and
        Adam updates lazily, so a step costs O(batch * dim).
        """
        if store.num_triples == 0:
            raise ConfigError("cannot fit a KGE model on an empty triple store")
        rng = ensure_rng(seed if seed is not None else self._rng)
        optimizer = Adam(self.parameters(), lr=lr, weight_decay=WEIGHT_DECAY)
        history = train_epochs(
            type(self).__name__, optimizer,
            lambda idx: self._batch_loss(store, idx, rng),
            store.num_triples, epochs, batch_size, rng,
            runtime=runtime, after_step=self._after_step,
        )
        self._fitted = True
        return history

    def _batch_loss(
        self,
        store: TripleStore,
        idx: np.ndarray,
        rng: np.random.Generator,
    ) -> Tensor:
        pos_h, pos_r, pos_t = store.heads[idx], store.relations[idx], store.tails[idx]
        neg_h, neg_r, neg_t = corrupt_batch(store, idx, rng)
        pos = self.score(pos_h, pos_r, pos_t)
        neg = self.score(neg_h, neg_r, neg_t)
        if self.loss_type == "margin":
            # score = -distance, so the hinge is margin + d(pos) - d(neg)
            return losses.margin_ranking_loss(-pos, -neg, margin=MARGIN)
        if self.loss_type == "logistic":
            return (ops.softplus(-pos) + ops.softplus(neg)).mean()
        raise ConfigError(f"unknown loss_type {self.loss_type!r}")

    def _after_step(self) -> None:
        """Mark this step's rows dirty in the store, then renormalize.

        The sparse row gradients are exactly the dirty-tracking wire format:
        after ``optimizer.step()`` the raw gradient of each embedding table
        still lists every row the step updated.  A dense gradient (a
        densifying op in the score function, or a ``p.grad`` read before the
        step) marks the whole table.
        """
        tracked = self.store is not None and self.store.track_dirty
        if tracked:
            for name, weight in (("entity", self.entity.weight),
                                 ("relation", self.relation.weight)):
                g = weight.raw_grad
                if isinstance(g, SparseGrad):
                    self.store.mark_dirty(name, g.rows)
                elif g is not None:
                    self.store.mark_dirty(name)
        if self.normalize_entities:
            w = self.entity.weight.data
            norms = np.linalg.norm(w, axis=1, keepdims=True)
            if tracked:
                # Rows at/below unit norm divide by 1.0 and keep their bits;
                # only rows actually shrunk need to reach the next commit.
                changed = np.nonzero(norms.ravel() > 1.0)[0]
                if changed.size:
                    self.store.mark_dirty("entity", changed)
            np.divide(w, np.maximum(norms, 1.0), out=w)
