"""RippleNet — preference propagation over the KG (Wang et al., CIKM 2018)
and its TOIS 2019 aggregation extension.

The user is represented by propagating preference outward from the entities
of their historical items through H hops of *ripple sets* (survey Section 3
and Eq. 24-26): at each hop, head entities interact with the query in the
relation space (``v^T R e_h``), attention weights select tails, and hop
responses ``o^1..o^H`` sum into the user embedding.

``aggregate_item=True`` gives RippleNet-agg, the TOIS variant where the item
representation is also refreshed with each hop response.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import nn, ops
from repro.autograd.tensor import Tensor
from repro.core.dataset import Dataset
from repro.core.registry import register_model
from repro.kg.ripple import user_ripple_sets

from ..common import GradientRecommender

__all__ = ["RippleNet", "RippleNetAgg"]


@register_model("RippleNet")
class RippleNet(GradientRecommender):
    """Multi-hop preference propagation with relation-space attention."""

    requires_kg = True

    def __init__(
        self,
        dim: int = 16,
        hops: int = 2,
        ripple_size: int = 32,
        aggregate_item: bool = False,
        **kwargs,
    ) -> None:
        kwargs.setdefault("loss", "bce")
        super().__init__(dim=dim, **kwargs)
        self.hops = max(1, hops)
        self.ripple_size = ripple_size
        self.aggregate_item = aggregate_item

    def _build(self, dataset: Dataset, rng: np.random.Generator) -> None:
        kg = dataset.kg
        self.entity = nn.Embedding(kg.num_entities, self.dim, seed=rng)
        # One (d x d) relation matrix per relation (Eq. 24's R_i).
        eye = np.eye(self.dim)
        noise = rng.normal(0.0, 0.05, (kg.num_relations, self.dim, self.dim))
        self.rel_matrix = nn.Parameter(eye[None] + noise)

        m = dataset.num_users
        shape = (m, self.hops, self.ripple_size)
        self._heads = np.zeros(shape, dtype=np.int64)
        self._rels = np.zeros(shape, dtype=np.int64)
        self._tails = np.zeros(shape, dtype=np.int64)
        self._mask = np.zeros(shape)
        for user in range(m):
            items = dataset.interactions.items_of(user)
            seeds = dataset.item_entities[items] if items.size else np.zeros(1, np.int64)
            sets = user_ripple_sets(
                kg, seeds, self.hops, max_size=self.ripple_size, seed=rng
            )
            for hop, ripple in enumerate(sets):
                k = min(ripple.size, self.ripple_size)
                if k == 0:
                    continue
                self._heads[user, hop, :k] = ripple.heads[:k]
                self._rels[user, hop, :k] = ripple.relations[:k]
                self._tails[user, hop, :k] = ripple.tails[:k]
                self._mask[user, hop, :k] = 1.0

    def _score_batch(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        batch = users.size
        v = self.entity(self.fitted_dataset.item_entities[items])  # (B, d)
        query = v
        responses: list[Tensor] = []
        for hop in range(self.hops):
            heads = self.entity(self._heads[users, hop])  # (B, S, d)
            tails = self.entity(self._tails[users, hop])  # (B, S, d)
            rel = self.rel_matrix[self._rels[users, hop]]  # (B, S, d, d)
            mask = Tensor(self._mask[users, hop])  # (B, S)

            rh = (rel @ heads.reshape(batch, self.ripple_size, self.dim, 1)).reshape(
                batch, self.ripple_size, self.dim
            )
            logits = (query.reshape(batch, 1, self.dim) * rh).sum(axis=2)  # (B, S)
            logits = logits + (mask - 1.0) * 1e9
            p = ops.softmax(logits, axis=1) * mask
            o = (p.reshape(batch, self.ripple_size, 1) * tails).sum(axis=1)  # (B, d)
            responses.append(o)
            query = o  # next hop queries with the current response (Eq. 24)
            if self.aggregate_item:
                v = v + o

        u = responses[0]
        for o in responses[1:]:
            u = u + o
        return (u * v).sum(axis=1)


@register_model("RippleNet-agg")
class RippleNetAgg(RippleNet):
    """TOIS 2019 extension: hop responses also refresh the item embedding."""

    def __init__(self, **kwargs) -> None:
        kwargs["aggregate_item"] = True
        super().__init__(**kwargs)
