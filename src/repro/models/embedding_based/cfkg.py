"""CFKG — Learning over knowledge-base embeddings (Zhang et al., 2018).

Constructs a *user-item* knowledge graph in which user behavior is one more
relation type, learns translation embeddings over the joint graph, and ranks
candidate items by the metric ``d(u + r_buy, v)`` (survey Eq. 7) — no
separate CF objective at all.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import Dataset
from repro.core.recommender import Explanation, Recommender
from repro.core.registry import register_model
from repro.kg.builders import ensure_user_item_graph
from repro.kge import KGE_MODELS

__all__ = ["CFKG"]


@register_model("CFKG")
class CFKG(Recommender):
    """TransE over the lifted user-item graph; score = -d(u + r_buy, v)."""

    requires_kg = True
    supports_explanations = True

    def __init__(
        self,
        dim: int = 16,
        kge: str = "TransE",
        epochs: int = 30,
        seed: int | None = 0,
    ) -> None:
        super().__init__()
        self.dim = dim
        self.kge_name = kge
        self.epochs = epochs
        self.seed = seed
        self._lifted: Dataset | None = None
        self._model = None

    def fit(self, dataset: Dataset) -> "CFKG":
        self._mark_fitted(dataset)
        lifted = ensure_user_item_graph(dataset, interact_label="buy")
        kg = lifted.kg
        model = KGE_MODELS[self.kge_name](
            kg.num_entities, kg.num_relations, dim=self.dim, seed=self.seed
        )
        model.fit(kg.store, epochs=self.epochs, seed=self.seed)
        self._lifted = lifted
        self._model = model
        return self

    def score_all(self, user_id: int) -> np.ndarray:
        dataset = self.fitted_dataset
        lifted = self._lifted
        emb = self._model.entity_embeddings()
        rel = self._model.relation_embeddings()
        buy = rel[lifted.extra["interact_relation"]]
        u = emb[lifted.user_entities[user_id]]
        items = emb[lifted.item_entities]
        delta = u[None, :] + buy[None, :] - items
        return -(delta**2).sum(axis=1)

    @property
    def explanation_dataset(self) -> Dataset:
        """Explanations traverse the lifted user-item graph."""
        return self._lifted

    def explain(self, user_id: int, item_id: int) -> list[Explanation]:
        """Nearest shared attribute: the strongest translation bridge."""
        dataset = self.fitted_dataset
        lifted = self._lifted
        kg = lifted.kg
        user_entity = int(lifted.user_entities[user_id])
        item_entity = int(lifted.item_entities[item_id])
        out: list[Explanation] = []
        history = dataset.interactions.items_of(user_id)
        history_entities = set(
            int(lifted.item_entities[v]) for v in history
        )
        for relation, attr in kg.neighbors(item_entity, undirected=True):
            for rel2, other in kg.neighbors(attr, undirected=True):
                if other in history_entities and other != item_entity:
                    out.append(
                        Explanation(
                            user_id=user_id,
                            item_id=item_id,
                            kind="shared-attribute",
                            score=float(self.score_all(user_id)[item_id]),
                            entities=(other, attr, item_entity),
                            relations=(rel2, relation),
                        )
                    )
                    if len(out) >= 3:
                        return out
        return out
