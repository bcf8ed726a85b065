"""Two-stage retrieval: ANN candidate generation + exact rerank.

:class:`TwoStageRecommender` wraps any *embedding-backed* recommender —
one whose scores are inner products between a per-user query vector
and per-item vectors — and replaces full-catalog scoring with:

1. **candidate generation**: an :class:`~repro.retrieval.ivf.IvfIndex`
   over the item vectors returns ``>= k_candidates`` candidate ids in
   sublinear time;
2. **exact rerank**: only those rows are scored with the base model's own
   scoring rule, so the ranking *among served items* is exactly the
   ranking the base model would have produced.

The wrapped model provides three methods (the *retrieval protocol*):

``item_vectors() -> (num_items, dim) array``
    the vectors the index is built over (read once per index build);
``query_vector(user_id) -> (dim,) array``
    the user vector the index searches with;
``score_items(user_id, item_ids) -> (len(item_ids),) float64``
    exact scores for a candidate subset — must agree with
    ``score_all(user_id)[item_ids]``.

plus optionally ``generation`` (an int that changes when the embeddings
do — e.g. the :class:`~repro.store.mmap.MmapShardStore` generation).
Scores are inner products, ``item_vectors()[i] @ query_vector(u)``: the
index probes and calibrates in that geometry, so a base scoring any
other way would be reranked against candidates chosen for the wrong
ranking.

**Staleness is typed, never silent.**  Every candidate request first
checks that the index matches the base model (built, same catalog size,
same generation); a mismatch raises
:class:`~repro.core.exceptions.IndexStaleError`, which the serving
ladder records as a rung failure and answers through the exact rung —
so no request is ever served from an index built against different
embeddings.  ``index.generation`` is assigned *last* during a build,
making it the in-memory commit point: a build that dies midway leaves
the index stale, not half-fresh.

:class:`ArrayEmbeddingRecommender` is the protocol's reference
implementation over plain in-memory arrays — the adapter for exporting
any trained model's embedding tables into the two-stage path, and the
catalog generator behind the retrieval cells of
``python -m repro fault-matrix``.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import Dataset
from repro.core.exceptions import (
    ConfigError,
    DataError,
    IndexStaleError,
    RetrievalError,
)
from repro.core.recommender import Recommender
from repro.telemetry.base import get_active

from .ivf import IvfIndex

__all__ = ["TwoStageRecommender", "ArrayEmbeddingRecommender"]

#: Methods a base recommender must expose to sit behind an ANN index.
PROTOCOL_METHODS = ("item_vectors", "query_vector", "score_items")


class ArrayEmbeddingRecommender(Recommender):
    """Embedding-backed recommender over plain arrays (protocol reference).

    Scores are ``items @ u``.  ``generation`` is a
    plain int the owner bumps (via :meth:`set_embeddings`) whenever the
    tables are replaced — the staleness signal the two-stage wrapper
    watches, mirroring the store generation of
    :class:`~repro.store.serving.StoredEmbeddingRecommender`.
    """

    requires_kg = False

    def __init__(
        self,
        user_vectors: np.ndarray,
        item_vectors: np.ndarray,
        generation: int = 0,
    ) -> None:
        super().__init__()
        self._users = np.ascontiguousarray(user_vectors, dtype=np.float64)
        self._items = np.ascontiguousarray(item_vectors, dtype=np.float64)
        if self._users.ndim != 2 or self._items.ndim != 2:
            raise DataError("user/item vectors must be 2-d arrays")
        if self._users.shape[1] != self._items.shape[1]:
            raise DataError("user and item vectors must share their dimension")
        self.generation = int(generation)

    def set_embeddings(self, item_vectors: np.ndarray) -> int:
        """Swap the item table in (a new "training generation").

        Bumps and returns :attr:`generation`.
        """
        items = np.ascontiguousarray(item_vectors, dtype=np.float64)
        if items.ndim != 2 or items.shape[1] != self._users.shape[1]:
            raise DataError("user and item vectors must share their dimension")
        self._items = items
        self.generation += 1
        return self.generation

    # -------------------------------------------------------------- #
    def fit(self, dataset: Dataset) -> "ArrayEmbeddingRecommender":
        if dataset.num_users != self._users.shape[0]:
            raise DataError(
                f"user vectors cover {self._users.shape[0]} users, "
                f"dataset has {dataset.num_users}"
            )
        if dataset.num_items != self._items.shape[0]:
            raise DataError(
                f"item vectors cover {self._items.shape[0]} items, "
                f"dataset has {dataset.num_items}"
            )
        self._mark_fitted(dataset)
        return self

    def score_all(self, user_id: int) -> np.ndarray:
        self.fitted_dataset
        return self._items @ self.query_vector(user_id)

    # -------------------------------------------------------------- #
    # retrieval protocol
    # -------------------------------------------------------------- #
    def item_vectors(self) -> np.ndarray:
        return self._items

    def query_vector(self, user_id: int) -> np.ndarray:
        return self._users[int(user_id)]

    def score_items(self, user_id: int, item_ids) -> np.ndarray:
        ids = np.asarray(item_ids, dtype=np.int64)
        return np.take(self._items, ids, axis=0) @ self.query_vector(user_id)


class TwoStageRecommender(Recommender):
    """ANN candidate generation in front of an exact embedding scorer.

    Parameters
    ----------
    base:
        A fitted (or fit-able) recommender implementing the retrieval
        protocol above.
    index:
        The :class:`IvfIndex` to generate candidates with.  It may be
        unbuilt; :meth:`sync_index` (called automatically by
        ``ModelRegistry.promote``) builds it against the base's current
        item vectors and generation.
    k_candidates:
        Candidate-set floor per request.  The exact rerank pays per
        candidate, so this is the recall/latency dial; keep it comfortably
        above the largest ``k`` plus a typical user's seen-item count.

    :meth:`score_all` falls back to the base's exact full scoring when the
    index is stale or missing (standalone use, evaluation), and counts
    each such answer in ``exact_fallbacks``.  The serving
    path is unaffected: :meth:`score_candidates` always raises
    :class:`~repro.core.exceptions.IndexStaleError` on staleness so the
    degradation ladder records a typed rung failure.
    """

    requires_kg = False
    #: Serving-layer marker: this rung returns (ids, scores) candidate
    #: subsets via :meth:`score_candidates` instead of full vectors.
    supports_candidates = True

    def __init__(
        self,
        base: Recommender,
        index: IvfIndex,
        k_candidates: int = 128,
    ) -> None:
        super().__init__()
        missing = [m for m in PROTOCOL_METHODS if not callable(getattr(base, m, None))]
        if missing:
            raise ConfigError(
                f"{type(base).__name__} does not implement the retrieval "
                f"protocol (missing {', '.join(missing)}); see "
                "repro.retrieval.two_stage"
            )
        if k_candidates < 1:
            raise ConfigError("k_candidates must be >= 1")
        self.base = base
        self.index = index
        self.k_candidates = int(k_candidates)
        #: Requests :meth:`score_all` answered by the base's exact scoring
        #: because the index was stale or empty; counted with telemetry on
        #: or off.
        self.exact_fallbacks = 0

    # -------------------------------------------------------------- #
    @property
    def generation(self) -> int | None:
        """The base model's embedding generation (None when unversioned)."""
        generation = getattr(self.base, "generation", None)
        return int(generation) if isinstance(generation, (int, np.integer)) else None

    def index_report(self) -> str | None:
        """``None`` when the index is servable, else the staleness reason."""
        if not self.index.is_built:
            return "index has never been built"
        num_items = self.fitted_dataset.num_items
        if self.index.num_vectors != num_items:
            return (
                f"index covers {self.index.num_vectors} items, "
                f"catalog has {num_items}"
            )
        generation = self.generation
        if generation is not None and self.index.generation != generation:
            return (
                f"index built at generation {self.index.generation}, "
                f"embeddings are at generation {generation}"
            )
        return None

    def sync_index(self, force: bool = False) -> int | None:
        """(Re)build the index against the base's current vectors.

        A no-op when the index is already fresh (unless ``force``), so
        ``ModelRegistry.promote`` can call it unconditionally.  The
        build's final step assigns ``index.generation`` — the in-memory
        commit point — so a build that raises leaves the index *stale*
        (requests degrade to the exact rung), never half-fresh.  Returns
        the generation the index now serves.
        """
        if not force and self.is_fitted and self.index_report() is None:
            return self.index.generation
        vectors = np.ascontiguousarray(self.base.item_vectors(), dtype=np.float32)
        self.index.build(vectors, generation=self.generation)
        return self.index.generation

    # -------------------------------------------------------------- #
    def fit(self, dataset: Dataset) -> "TwoStageRecommender":
        if not self.base.is_fitted:
            self.base.fit(dataset)
        self._mark_fitted(dataset)
        return self

    def score_candidates(
        self, user_id: int, k: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Candidate ids + their exact scores; the ANN serving entrypoint.

        Raises :class:`IndexStaleError` when the index does not match the
        live embeddings, and :class:`RetrievalError` when probing finds no
        candidates at all — both surface as typed rung failures in the
        serving ladder, never as silent wrong answers.
        """
        self.fitted_dataset
        reason = self.index_report()
        if reason is not None:
            tel = get_active()
            if tel.enabled:
                tel.counter("retrieval.stale_refusals", index=self.index.kind).inc()
            raise IndexStaleError(reason)
        user_id = int(user_id)
        quota = max(self.k_candidates, int(k) if k is not None else 1)
        query = np.asarray(self.base.query_vector(user_id), dtype=np.float32)
        ids = self.index.search(query, quota)
        if ids.size == 0:
            raise RetrievalError(f"index returned no candidates for user {user_id}")
        scores = np.asarray(self.base.score_items(user_id, ids), dtype=np.float64)
        tel = get_active()
        if tel.enabled:
            tel.counter("retrieval.requests", index=self.index.kind).inc()
            tel.counter("retrieval.candidates", index=self.index.kind).inc(
                int(ids.size)
            )
        return ids, scores

    def score_all(self, user_id: int) -> np.ndarray:
        """Full-length score vector for protocol compatibility.

        Candidates carry their exact scores; every other item gets a
        sentinel strictly below the worst candidate, so downstream
        top-k/ranking code (evaluators, ``Recommender.recommend``) keeps
        working — the tail order among non-candidates is not meaningful.
        """
        dataset = self.fitted_dataset
        try:
            ids, scores = self.score_candidates(user_id)
        except (IndexStaleError, RetrievalError):
            self.exact_fallbacks += 1
            tel = get_active()
            if tel.enabled:
                tel.counter("retrieval.exact_fallbacks").inc()
            return np.asarray(self.base.score_all(user_id), dtype=np.float64)
        full = np.full(dataset.num_items, float(scores.min()) - 1.0, dtype=np.float64)
        full[ids] = scores
        return full
