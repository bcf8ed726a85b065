"""Fallback chains: personalized -> neighborhood/popularity -> static top-k.

The survey's qualitative promise — KG side information keeps a system
recommending under sparsity and cold start — only holds online if the
serving boundary can *degrade* instead of failing: when the personalized
model is broken (breaker open, deadline blown, NaN scores), the request
falls through an ordered chain of progressively simpler scorers and the
response records exactly how far it fell (``degraded`` /
``fallback_used``).

A chain rung is any fitted :class:`~repro.core.recommender.Recommender`.
:class:`StaticTopK` is the designed last resort: a frozen global score
vector (item popularity) that involves no model call at all, cannot
raise, and costs O(num_items) — so the final rung always answers.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import Dataset
from repro.core.recommender import Recommender

__all__ = ["StaticTopK"]


class StaticTopK(Recommender):
    """Non-personalized last-resort scorer over frozen popularity scores.

    Unlike :class:`~repro.models.baselines.nonpersonalized.MostPopular`
    this is constructed *for serving*: the item-degree vector is frozen
    once at fit time so ``score_all`` is an infallible array return, and
    a copy is handed out to keep the frozen ranking immune to downstream
    mutation.
    """

    def fit(self, dataset: Dataset) -> "StaticTopK":
        self._scores = dataset.interactions.item_degrees().astype(np.float64)
        self._mark_fitted(dataset)
        return self

    def score_all(self, user_id: int) -> np.ndarray:
        self.fitted_dataset
        return self._scores.copy()
