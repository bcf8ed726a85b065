"""SemRec — semantic path based personalized recommendation
(Shi et al., CIKM 2015).

SemRec works on a *weighted* HIN: interaction links carry rating values, so
meta-path similarity distinguishes users who rate the same items the same
way (both loved vs. both hated), capturing positive *and* negative
preference patterns.  Prediction is neighborhood-style per meta-path —
similar users' feedback, weighted by path similarity — combined with
learned per-path weights.

With implicit feedback the weight channel degenerates to 1s; explicit
datasets use the rating values.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import Dataset
from repro.core.recommender import Recommender
from repro.core.registry import register_model
from repro.core.rng import ensure_rng

from . import common

__all__ = ["SemRec"]


@register_model("SemRec")
class SemRec(Recommender):
    """Weighted meta-path user-similarity neighborhood model."""

    requires_kg = True

    def __init__(
        self,
        num_metapaths: int = 3,
        weight_epochs: int = 30,
        weight_lr: float = 0.1,
        seed: int | None = 0,
    ) -> None:
        super().__init__()
        self.num_metapaths = num_metapaths
        self.weight_epochs = weight_epochs
        self.weight_lr = weight_lr
        self.seed = seed
        self.path_weights: np.ndarray | None = None
        self._predictions: list[np.ndarray] | None = None

    def fit(self, dataset: Dataset) -> "SemRec":
        self._mark_fitted(dataset)
        rng = ensure_rng(self.seed)
        lifted = common.lift(dataset)
        paths = common.user_metapaths(lifted, max_paths=self.num_metapaths)

        # Weighted feedback: ratings if available, else binary.
        feedback = dataset.interactions.to_dense()

        self._predictions = []
        for path in paths:
            sim = common.user_similarity(lifted, path)
            np.fill_diagonal(sim, 0.0)
            norm = sim.sum(axis=1, keepdims=True)
            normalized = np.divide(sim, norm, out=np.zeros_like(sim), where=norm > 0)
            self._predictions.append(normalized @ feedback)
        if not self._predictions:
            self._predictions = [feedback]

        # Learn per-path weights with pairwise ranking on training data.
        features = np.stack(self._predictions, axis=0)  # (L, m, n)
        num_paths = features.shape[0]
        weights = np.full(num_paths, 1.0 / num_paths)
        pairs = dataset.interactions.pairs()
        for __ in range(self.weight_epochs):
            idx = rng.integers(0, pairs.shape[0], size=min(800, pairs.shape[0]))
            for row in idx:
                u, i = int(pairs[row, 0]), int(pairs[row, 1])
                j = int(rng.integers(0, dataset.num_items))
                x = features[:, u, i] - features[:, u, j]
                g = 1.0 / (1.0 + np.exp(weights @ x))
                weights += self.weight_lr * g * x / idx.size * 50
        self.path_weights = weights
        return self

    def score_all(self, user_id: int) -> np.ndarray:
        self.fitted_dataset
        stacked = np.stack([p[user_id] for p in self._predictions], axis=0)
        return self.path_weights @ stacked
