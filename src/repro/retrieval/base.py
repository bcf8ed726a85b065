"""Exact ground truth for the retrieval package.

The ANN index (:class:`~repro.retrieval.ivf.IvfIndex`) is judged against
these references: :func:`exact_topk` is the true top-k a full-catalog
scan returns, and :func:`recall_at_k` is the fraction of it a candidate
set holds.  Because the second stage reranks candidates exactly,
candidate recall *is* end-to-end recall.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pairwise_scores", "exact_topk", "recall_at_k"]


def pairwise_scores(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Exact inner-product scores of every row of ``vectors`` against one
    query (higher is better, the ``score_all`` convention)."""
    vectors = np.asarray(vectors)
    return vectors @ np.asarray(query, dtype=vectors.dtype).ravel()


def exact_topk(vectors: np.ndarray, query: np.ndarray, k: int) -> np.ndarray:
    """The true top-``k`` ids (descending score, ties lowest id first).

    ``argpartition`` alone would pick an arbitrary tied id at the ``k``
    boundary, so every id scoring at least the ``k``-th best is kept and
    a stable sort over them (ascending ids) breaks the ties.
    """
    scores = pairwise_scores(vectors, query)
    k = min(int(k), scores.size)
    kth = np.partition(scores, scores.size - k)[scores.size - k]
    tied = np.flatnonzero(scores >= kth)
    return tied[np.argsort(-scores[tied], kind="stable")[:k]].astype(np.int64)


def recall_at_k(candidates: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of the true top-k present in the candidate set."""
    truth = np.asarray(truth)
    if truth.size == 0:
        return 1.0
    return float(np.isin(truth, candidates).mean())
