"""Shared training scaffold for gradient-trained recommenders.

Most surveyed models reduce to: build parameters from the dataset, score a
batch of (user, item) pairs differentiably, and optimize a pairwise BPR or
pointwise BCE objective over positives and sampled negatives (the survey's
Eq. 1/10 patterns).  :class:`GradientRecommender` implements that recipe
once, on the mini-batch loop shared with the KGE models
(:func:`repro.runtime.loop.train_epochs`); concrete models override
:meth:`_build` and :meth:`_score_batch` and, for multi-task methods,
:meth:`_extra_loss`.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.autograd import Adam, losses, nn
from repro.autograd.tensor import Tensor, no_tape
from repro.core.dataset import Dataset
from repro.core.exceptions import ConfigError, DataError
from repro.core.recommender import Recommender
from repro.core.rng import ensure_rng
from repro.runtime import TrainingRuntime
from repro.runtime.loop import train_epochs

__all__ = ["GradientRecommender"]


class GradientRecommender(Recommender, nn.Module, abc.ABC):
    """Base class: autograd parameters + BPR/BCE mini-batch training.

    Parameters
    ----------
    dim:
        Latent dimensionality.
    epochs, batch_size, lr, l2:
        Optimization hyper-parameters (Adam).
    num_negatives:
        Negatives sampled per positive (pointwise mode) or 1 (pairwise).
    loss:
        ``"bpr"`` (pairwise) or ``"bce"`` (pointwise log loss).
    seed:
        Seed controlling initialization and sampling.
    """

    def __init__(
        self,
        dim: int = 16,
        epochs: int = 30,
        batch_size: int = 128,
        lr: float = 0.02,
        l2: float = 1e-5,
        num_negatives: int = 1,
        loss: str = "bpr",
        seed: int | None = 0,
    ) -> None:
        Recommender.__init__(self)
        if dim < 1:
            raise ConfigError("dim must be >= 1")
        if loss not in ("bpr", "bce"):
            raise ConfigError("loss must be 'bpr' or 'bce'")
        self.dim = dim
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.l2 = l2
        self.num_negatives = max(1, num_negatives)
        self.loss = loss
        self.seed = seed
        self.loss_history: list[float] = []

    # ------------------------------------------------------------------ #
    # hooks
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _build(self, dataset: Dataset, rng: np.random.Generator) -> None:
        """Create parameters and any precomputed structures."""

    @abc.abstractmethod
    def _score_batch(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        """Differentiable scores for parallel user/item id arrays."""

    def _extra_loss(
        self, rng: np.random.Generator, batch_size: int
    ) -> Tensor | None:
        """Optional auxiliary loss (multi-task KG terms); ``None`` to skip."""
        return None

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def fit(
        self, dataset: Dataset, runtime: TrainingRuntime | None = None
    ) -> "GradientRecommender":
        """Train on ``dataset``'s interactions through
        :func:`repro.runtime.loop.train_epochs`; ``runtime`` adds fault
        injection, divergence detection and checkpoint/resume to the loop
        (see ``docs/robustness.md``)."""
        self._mark_fitted(dataset)
        rng = ensure_rng(self.seed)
        self._build(dataset, rng)
        optimizer = Adam(self.parameters(), lr=self.lr, weight_decay=self.l2)

        pairs = dataset.interactions.pairs()
        if pairs.shape[0] == 0:
            raise DataError("cannot train on empty interactions")
        n_items = dataset.num_items

        def batch_loss(idx: np.ndarray) -> Tensor:
            loss = self._batch_loss(pairs[idx, 0], pairs[idx, 1], n_items, rng)
            extra = self._extra_loss(rng, idx.size)
            return loss if extra is None else loss + extra

        self.loss_history = train_epochs(
            type(self).__name__, optimizer, batch_loss, pairs.shape[0],
            self.epochs, self.batch_size, rng, runtime=runtime,
        )
        return self

    def _batch_loss(
        self,
        users: np.ndarray,
        positives: np.ndarray,
        n_items: int,
        rng: np.random.Generator,
    ) -> Tensor:
        if self.loss == "bpr":
            negatives = rng.integers(0, n_items, size=users.size)
            pos_scores = self._score_batch(users, positives)
            neg_scores = self._score_batch(users, negatives)
            return losses.bpr_loss(pos_scores, neg_scores)
        # pointwise BCE: positives labeled 1, sampled negatives labeled 0
        neg_users = np.repeat(users, self.num_negatives)
        negatives = rng.integers(0, n_items, size=neg_users.size)
        all_users = np.concatenate([users, neg_users])
        all_items = np.concatenate([positives, negatives])
        labels = np.concatenate([np.ones(users.size), np.zeros(neg_users.size)])
        logits = self._score_batch(all_users, all_items)
        return losses.bce_with_logits(logits, labels)

    # ------------------------------------------------------------------ #
    def score_all(self, user_id: int) -> np.ndarray:
        """Scores of every item, computed without recording a tape."""
        dataset = self.fitted_dataset
        n = dataset.num_items
        items = np.arange(n, dtype=np.int64)
        users = np.full(n, user_id, dtype=np.int64)
        chunks: list[np.ndarray] = []
        step = 512
        with no_tape():
            for start in range(0, n, step):
                chunk = self._score_batch(
                    users[start : start + step], items[start : start + step]
                )
                chunks.append(np.atleast_1d(chunk.numpy()))
        return np.concatenate(chunks)
