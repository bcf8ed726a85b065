"""RCF — Relational Collaborative Filtering (Xin et al., SIGIR 2019).

Items are described hierarchically by *relation types* and *relation
values* (the attribute entities).  RCF models user preference at both
levels with two attention stages — type-level attention over relations and
value-level attention over each relation's attribute entities — and
jointly trains a DistMult term that preserves the relational structure of
the item graph.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import nn, ops
from repro.autograd.tensor import Tensor
from repro.core.dataset import Dataset
from repro.core.registry import register_model

from ..common import GradientRecommender

__all__ = ["RCF"]


@register_model("RCF")
class RCF(GradientRecommender):
    """Two-level relational attention CF with a DistMult auxiliary task."""

    requires_kg = True

    def __init__(
        self,
        dim: int = 16,
        max_values: int = 4,
        kg_weight: float = 0.3,
        kg_batch: int = 64,
        **kwargs,
    ) -> None:
        super().__init__(dim=dim, loss="bpr", **kwargs)
        self.max_values = max_values
        self.kg_weight = kg_weight
        self.kg_batch = kg_batch

    def _build(self, dataset: Dataset, rng: np.random.Generator) -> None:
        kg = dataset.kg
        self.user = nn.Embedding(dataset.num_users, self.dim, seed=rng)
        self.item = nn.Embedding(dataset.num_items, self.dim, seed=rng)
        self.entity = nn.Embedding(kg.num_entities, self.dim, seed=rng)
        self.rel_type = nn.Embedding(kg.num_relations, self.dim, seed=rng)

        # Pad each item's attributes to (num_relations, max_values) with a
        # mask, so attention runs fully vectorized over the batch.
        n, num_rel, width = dataset.num_items, kg.num_relations, self.max_values
        self._attr_idx = np.zeros((n, num_rel, width), dtype=np.int64)
        self._attr_mask = np.zeros((n, num_rel, width))
        for item in range(n):
            entity = dataset.entity_of_item(item)
            by_rel: dict[int, list[int]] = {}
            for rel, nbr in kg.neighbors(entity, undirected=False):
                by_rel.setdefault(rel, []).append(nbr)
            for rel, values in by_rel.items():
                values = values[:width]
                self._attr_idx[item, rel, : len(values)] = values
                self._attr_mask[item, rel, : len(values)] = 1.0

    def _score_batch(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        batch = users.size
        u = self.user(users)  # (B, d)
        v = self.item(items)  # (B, d)
        rel = self.rel_type.weight  # (R, d)
        num_rel = rel.shape[0]

        attrs = self.entity(self._attr_idx[items])  # (B, R, A, d)
        mask = Tensor(self._attr_mask[items])  # (B, R, A)

        # Value-level attention: query is u modulated by the relation type.
        query = u.reshape(batch, 1, self.dim) * rel.reshape(1, num_rel, self.dim)
        value_logits = (query.reshape(batch, num_rel, 1, self.dim) * attrs).sum(axis=3)
        value_logits = value_logits + (mask - 1.0) * 1e9
        beta = ops.softmax(value_logits, axis=2)  # (B, R, A)
        beta = beta * mask  # fully-masked rows contribute nothing
        values = (beta.reshape(batch, num_rel, self.max_values, 1) * attrs).sum(axis=2)

        # Type-level attention over relations the item actually has.
        has_rel = Tensor((self._attr_mask[items].sum(axis=2) > 0).astype(np.float64))
        type_logits = (u.reshape(batch, 1, self.dim) * rel.reshape(1, num_rel, self.dim)).sum(axis=2)
        type_logits = type_logits + (has_rel - 1.0) * 1e9
        alpha = ops.softmax(type_logits, axis=1) * has_rel  # (B, R)
        context = (alpha.reshape(batch, num_rel, 1) * values).sum(axis=1)  # (B, d)

        return (u * (v + context)).sum(axis=1)

    def _extra_loss(self, rng: np.random.Generator, batch_size: int) -> Tensor | None:
        if self.kg_weight <= 0:
            return None
        kg = self.fitted_dataset.kg
        idx = rng.integers(0, kg.num_triples, size=min(self.kg_batch, kg.num_triples))
        heads = kg.store.heads[idx]
        rels = kg.store.relations[idx]
        tails = kg.store.tails[idx]
        neg_tails = rng.integers(0, kg.num_entities, size=idx.size)
        pos = (self.entity(heads) * self.rel_type(rels) * self.entity(tails)).sum(axis=1)
        neg = (self.entity(heads) * self.rel_type(rels) * self.entity(neg_tails)).sum(axis=1)
        loss = (ops.softplus(-pos) + ops.softplus(neg)).mean()
        return loss * self.kg_weight
