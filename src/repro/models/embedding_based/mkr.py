"""MKR — Multi-task feature learning for KG-enhanced recommendation
(Wang et al., WWW 2019).

Two modules trained jointly (survey Eq. 9): a recommendation module
(user/item embeddings + MLPs) and a KGE module (entity/relation embeddings
+ tail prediction), bridged by *cross & compress units* that model the
element-wise interactions between an item's CF vector and its KG entity
vector and re-compress them to the latent dimension.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import losses, nn, ops
from repro.autograd.tensor import Tensor
from repro.core.dataset import Dataset
from repro.core.registry import register_model

from ..common import GradientRecommender

__all__ = ["MKR", "CrossCompress"]


class CrossCompress(nn.Module):
    """One cross & compress unit.

    For item vector ``v`` and entity vector ``e`` (both ``(B, d)``), forms
    the cross matrix ``C = v e^T`` and compresses it back:
    ``v' = C w_vv + C^T w_ev + b_v`` and ``e' = C w_ve + C^T w_ee + b_e``.

    ``C`` is rank one, so ``C w = v (e . w)`` and ``C^T w = e (v . w)``: the
    unit never builds the ``(B, d, d)`` cross matrix, only ``(B, d)``
    products and ``(B,)`` dot products.  ``tests/autograd_reference.py``
    keeps the cross-matrix composition as the oracle.
    """

    def __init__(self, dim: int, seed=None) -> None:
        from repro.core.rng import ensure_rng

        rng = ensure_rng(seed)
        scale = 1.0 / np.sqrt(dim)
        self.w_vv = nn.Parameter(rng.normal(0.0, scale, dim))
        self.w_ev = nn.Parameter(rng.normal(0.0, scale, dim))
        self.w_ve = nn.Parameter(rng.normal(0.0, scale, dim))
        self.w_ee = nn.Parameter(rng.normal(0.0, scale, dim))
        self.b_v = nn.Parameter(np.zeros(dim))
        self.b_e = nn.Parameter(np.zeros(dim))

    def __call__(self, v: Tensor, e: Tensor) -> tuple[Tensor, Tensor]:
        batch = v.shape[0]

        def compress(w: Tensor, w_t: Tensor) -> Tensor:
            """``C w + C^T w_t`` as ``v (e . w) + e (v . w_t)``."""
            return v * (e @ w).reshape(batch, 1) + e * (v @ w_t).reshape(batch, 1)

        return compress(self.w_vv, self.w_ev) + self.b_v, compress(self.w_ve, self.w_ee) + self.b_e


@register_model("MKR")
class MKR(GradientRecommender):
    """Multi-task recommendation + KGE with cross & compress units."""

    requires_kg = True

    def __init__(
        self,
        dim: int = 16,
        num_layers: int = 1,
        kg_weight: float = 0.5,
        kg_batch: int = 64,
        **kwargs,
    ) -> None:
        kwargs.setdefault("loss", "bce")
        super().__init__(dim=dim, **kwargs)
        self.num_layers = max(1, num_layers)
        self.kg_weight = kg_weight
        self.kg_batch = kg_batch

    def _build(self, dataset: Dataset, rng: np.random.Generator) -> None:
        kg = dataset.kg
        self.user = nn.Embedding(dataset.num_users, self.dim, seed=rng)
        self.item = nn.Embedding(dataset.num_items, self.dim, seed=rng)
        self.entity = nn.Embedding(kg.num_entities, self.dim, seed=rng)
        self.relation = nn.Embedding(kg.num_relations, self.dim, seed=rng)
        self.cross = [CrossCompress(self.dim, seed=rng) for __ in range(self.num_layers)]
        self.user_mlp = nn.MLP([self.dim, self.dim], seed=rng)
        self.tail_mlp = nn.MLP([2 * self.dim, self.dim], seed=rng)
        self._item_entities = dataset.item_entities
        # Entities that are items (for the KGE-side cross&compress).
        self._entity_to_item = np.full(kg.num_entities, -1, dtype=np.int64)
        for item, entity in enumerate(dataset.item_entities):
            if entity >= 0:
                self._entity_to_item[entity] = item

    def _item_latent(self, items: np.ndarray) -> Tensor:
        v = self.item(items)
        e = self.entity(self._item_entities[items])
        for unit in self.cross:
            v, e = unit(v, e)
        return v

    def _score_batch(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        u = self.user_mlp(self.user(users))
        v = self._item_latent(items)
        return (u * v).sum(axis=1)

    def _extra_loss(self, rng: np.random.Generator, batch_size: int) -> Tensor | None:
        if self.kg_weight <= 0:
            return None
        kg = self.fitted_dataset.kg
        idx = rng.integers(0, kg.num_triples, size=min(self.kg_batch, kg.num_triples))
        heads = kg.store.heads[idx]
        rels = kg.store.relations[idx]
        tails = kg.store.tails[idx]
        neg_tails = rng.integers(0, kg.num_entities, size=idx.size)

        h = self.entity(heads)
        # Heads that are items get the cross&compress treatment (shared
        # latent), mirroring MKR's bridged item/entity features.
        item_ids = self._entity_to_item[heads]
        aligned = item_ids >= 0
        if aligned.any():
            v = self.item(np.where(aligned, item_ids, 0))
            e = h
            for unit in self.cross:
                v, e = unit(v, e)
            gate = Tensor(aligned.astype(np.float64).reshape(-1, 1))
            h = e * gate + h * (1.0 - gate)
        r = self.relation(rels)
        predicted_tail = self.tail_mlp(ops.concat([h, r], axis=1))
        pos = (predicted_tail * self.entity(tails)).sum(axis=1)
        neg = (predicted_tail * self.entity(neg_tails)).sum(axis=1)
        labels = np.concatenate([np.ones(idx.size), np.zeros(idx.size)])
        logits = ops.concat([pos, neg], axis=0)
        return losses.bce_with_logits(logits, labels) * self.kg_weight
