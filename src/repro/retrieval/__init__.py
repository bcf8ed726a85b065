"""Two-stage retrieval: ANN candidate generation + exact rerank.

Ranking a million-item catalog per request with ``score_all`` is linear
in the catalog; this package makes serving sublinear by splitting every
request into *candidate generation* over an approximate top-k index and
an *exact rerank* of only the candidates (see ``docs/retrieval.md``):

* :mod:`repro.retrieval.ivf` — :class:`IvfIndex`, the ANN index:
  k-means coarse partitions, a probe count each cold build calibrates
  to a recall target, blocked vectorized assignment; seed-deterministic
  with fingerprintable contents (``build`` / ``search`` /
  ``successor``).
* :mod:`repro.retrieval.base` — exact-top-k ground-truth and recall
  helpers.
* :mod:`repro.retrieval.two_stage` — :class:`TwoStageRecommender`, the
  serving rung that wraps any embedding-backed recommender (including the
  store-backed :class:`~repro.store.serving.StoredEmbeddingRecommender`),
  with typed :class:`~repro.core.exceptions.IndexStaleError` degradation
  and index rebuilds hooked into ``ModelRegistry.promote``; plus
  :class:`ArrayEmbeddingRecommender`, the in-memory protocol adapter.

Every score on this path is an inner product between a user's query
vector and item vectors, the one geometry the index probes, calibrates
and reranks in.

Benchmarks (recall@k vs exact, p50/p99 latency at 10^5 and 10^6 items)
live in ``benchmarks/bench_retrieval.py`` →
``benchmarks/BENCH_retrieval.json``; :mod:`repro.retrieval.demo` holds
the retrieval cells of ``python -m repro fault-matrix``, which replay the
ANN rung, injected and real staleness, and an index-synced promotion end
to end and assert each episode's typed outcomes.
"""

from __future__ import annotations

from .base import exact_topk, recall_at_k
from .ivf import IvfIndex
from .two_stage import ArrayEmbeddingRecommender, TwoStageRecommender

__all__ = [
    "IvfIndex",
    "TwoStageRecommender",
    "ArrayEmbeddingRecommender",
    "exact_topk",
    "recall_at_k",
]
