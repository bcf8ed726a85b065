"""Serving-side recommender that scores straight off a sharded store.

:class:`StoredEmbeddingRecommender` is the bridge between the durable
store and the fault-tolerant serving stack: it implements the normal
:class:`~repro.core.recommender.Recommender` interface but reads its
embedding tables from a serve-mode
:class:`~repro.store.mmap.MmapShardStore` instead of holding arrays of
its own.  Promoting a new training generation is therefore opening a
serve view at it — a manifest read that moves no embedding bytes — and
rollback is a view of the previous generation.

Because every ``score_all`` goes through the store, a closed or broken
store surfaces as :class:`~repro.core.exceptions.StoreError` from the
rung, which :class:`~repro.serving.service.RecommenderService` treats
like any other rung failure: the breaker records it and the request is
served by the next rung down the degradation ladder.  The durability
harness asserts exactly this (typed outcomes, never an escaped
exception) while shards are being corrupted underneath the service.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import Dataset
from repro.core.exceptions import ConfigError
from repro.core.recommender import Recommender

from .mmap import MmapShardStore

__all__ = ["StoredEmbeddingRecommender"]


class StoredEmbeddingRecommender(Recommender):
    """Score users against items using a store's embedding tables.

    Parameters
    ----------
    store:
        A serve-mode :class:`MmapShardStore`.
    user_entities, item_entities:
        Row indices into ``entity_table`` for each user / item id — the
        same alignment the lifted user-item graph gives CFKG-style
        models.  Scores are dot products ``i @ u``.
    """

    requires_kg = False

    def __init__(
        self,
        store: MmapShardStore,
        user_entities: np.ndarray,
        item_entities: np.ndarray,
        entity_table: str = "entity",
    ) -> None:
        super().__init__()
        if store.mode != "serve":
            raise ConfigError(
                "StoredEmbeddingRecommender needs a serve-mode store "
                f"(got mode={store.mode!r})"
            )
        self.store = store
        self.user_entities = np.asarray(user_entities, dtype=np.int64)
        self.item_entities = np.asarray(item_entities, dtype=np.int64)
        self.entity_table = entity_table

    # ------------------------------------------------------------------ #
    @property
    def generation(self) -> int:
        """The store generation currently being served."""
        return self.store.generation

    # ------------------------------------------------------------------ #
    def fit(self, dataset: Dataset) -> "StoredEmbeddingRecommender":
        """No training happens here — just bind the catalog being served."""
        if dataset.num_users != self.user_entities.size:
            raise ConfigError(
                f"user_entities maps {self.user_entities.size} users, "
                f"dataset has {dataset.num_users}"
            )
        if dataset.num_items != self.item_entities.size:
            raise ConfigError(
                f"item_entities maps {self.item_entities.size} items, "
                f"dataset has {dataset.num_items}"
            )
        self._mark_fitted(dataset)
        return self

    def score_all(self, user_id: int) -> np.ndarray:
        return self._score(user_id, self.item_entities)

    def _score(self, user_id: int, item_rows: np.ndarray) -> np.ndarray:
        """Scores of ``user_id`` against the entity rows ``item_rows``."""
        self.fitted_dataset
        u = self.query_vector(user_id)
        items = self.store.table(self.entity_table).gather(item_rows)
        return items.astype(np.float64) @ u

    # ------------------------------------------------------------------ #
    # retrieval protocol (see repro.retrieval.two_stage): lets a
    # TwoStageRecommender generate ANN candidates over this model's item
    # vectors and exact-rerank them by gathering only the candidate rows
    # from the serve-mode mmap views — never the full table.
    # ------------------------------------------------------------------ #
    def item_vectors(self) -> np.ndarray:
        """The item rows an ANN index is built over (one materialized read).

        This is an index-*build*-time operation (per promotion, not per
        request); request-path gathers stay candidate-sized.
        """
        entities = self.store.table(self.entity_table)
        return entities.gather(self.item_entities)

    def query_vector(self, user_id: int) -> np.ndarray:
        """The per-user ANN query: the user's entity row."""
        entities = self.store.table(self.entity_table)
        return entities.row(self.user_entities[int(user_id)]).astype(np.float64)

    def score_items(self, user_id: int, item_ids) -> np.ndarray:
        """Exact scores for a candidate subset (gathers only those rows)."""
        item_ids = np.asarray(item_ids, dtype=np.int64)
        return self._score(user_id, self.item_entities[item_ids])
