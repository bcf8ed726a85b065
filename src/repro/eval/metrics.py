"""Ranking and classification metrics used across the surveyed papers.

All top-K metrics take a *ranked list* of recommended item ids and the set
of relevant (held-out) items; AUC takes score arrays.  Per-user values are
averaged by :class:`repro.eval.evaluator.Evaluator`.
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import EvaluationError

__all__ = [
    "auc",
    "precision_at_k",
    "recall_at_k",
    "hit_ratio_at_k",
    "ndcg_at_k",
    "reciprocal_rank",
]


def auc(positive_scores: np.ndarray, negative_scores: np.ndarray) -> float:
    """Area under the ROC curve from score samples.

    Computed exactly as the probability a random positive outscores a random
    negative, with ties counted as half.
    """
    pos = np.asarray(positive_scores, dtype=np.float64).ravel()
    neg = np.asarray(negative_scores, dtype=np.float64).ravel()
    if pos.size == 0 or neg.size == 0:
        raise EvaluationError("AUC needs at least one positive and one negative")
    # Rank-sum formulation (Mann-Whitney U), robust to ties.
    combined = np.concatenate([pos, neg])
    order = np.argsort(combined, kind="stable")
    ranks = np.empty(combined.size, dtype=np.float64)
    ranks[order] = np.arange(1, combined.size + 1)
    # Average ranks over ties.
    sorted_scores = combined[order]
    i = 0
    while i < combined.size:
        j = i
        while j + 1 < combined.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = (i + 1 + j + 1) / 2.0
        i = j + 1
    u = ranks[: pos.size].sum() - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


def _validate(ranked: np.ndarray, k: int) -> np.ndarray:
    ranked = np.asarray(ranked, dtype=np.int64).ravel()
    if k < 1:
        raise EvaluationError("k must be >= 1")
    return ranked[:k]


def precision_at_k(ranked_items: np.ndarray, relevant: set[int], k: int) -> float:
    """Fraction of the top-k that is relevant."""
    top = _validate(ranked_items, k)
    if top.size == 0:
        return 0.0
    hits = sum(1 for v in top if int(v) in relevant)
    return hits / k


def recall_at_k(ranked_items: np.ndarray, relevant: set[int], k: int) -> float:
    """Fraction of relevant items captured in the top-k."""
    if not relevant:
        raise EvaluationError("recall undefined with no relevant items")
    top = _validate(ranked_items, k)
    hits = sum(1 for v in top if int(v) in relevant)
    return hits / len(relevant)


def hit_ratio_at_k(ranked_items: np.ndarray, relevant: set[int], k: int) -> float:
    """1.0 iff any relevant item appears in the top-k."""
    top = _validate(ranked_items, k)
    return 1.0 if any(int(v) in relevant for v in top) else 0.0


def ndcg_at_k(ranked_items: np.ndarray, relevant: set[int], k: int) -> float:
    """Normalized discounted cumulative gain with binary relevance."""
    if not relevant:
        raise EvaluationError("nDCG undefined with no relevant items")
    top = _validate(ranked_items, k)
    gains = np.fromiter(
        (1.0 if int(v) in relevant else 0.0 for v in top), dtype=np.float64
    )
    discounts = 1.0 / np.log2(np.arange(2, top.size + 2))
    dcg = float((gains * discounts).sum())
    ideal_hits = min(len(relevant), k)
    ideal = float((1.0 / np.log2(np.arange(2, ideal_hits + 2))).sum())
    return dcg / ideal if ideal > 0 else 0.0


def reciprocal_rank(ranked_items: np.ndarray, relevant: set[int]) -> float:
    """1 / rank of the first relevant item (0 when none appears)."""
    ranked = np.asarray(ranked_items, dtype=np.int64).ravel()
    for pos, item in enumerate(ranked, start=1):
        if int(item) in relevant:
            return 1.0 / pos
    return 0.0
