"""KGCN — Knowledge Graph Convolutional Networks (Wang et al., WWW 2019)
and KGCN-LS, its label-smoothness extension (KDD 2019).

The candidate item's representation is built inward from its H-hop sampled
receptive field: neighbors are weighted by a *user-relation* attention
(``pi = softmax(u . r)``) and merged with the center entity by one of the
survey's four aggregators (Eq. 30-33: sum, concat, neighbor,
bi-interaction).  KGCN-LS adds a label-smoothness term: user interaction
labels are propagated over the same receptive field with the same
user-specific edge weights, and the propagated label of the candidate must
match the true label.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import losses, nn, ops
from repro.autograd.tensor import Tensor
from repro.core.dataset import Dataset
from repro.core.exceptions import ConfigError
from repro.core.registry import register_model
from repro.kg.sampling import NeighborCache

from ..common import GradientRecommender

__all__ = ["KGCN", "KGCNLS", "AGGREGATORS"]

AGGREGATORS = ("sum", "concat", "neighbor", "bi-interaction")


def attention_pool(u: Tensor, r: Tensor, nbr: Tensor, num_neighbors: int) -> Tensor:
    """``sum_s softmax_s(u . r_s) nbr_s`` as one tape node: ``(B, W, d)``.

    ``u`` is the ``(B, d)`` user vector, ``r`` the ``(B, W, S, d)``
    relation vectors of each sampled edge and ``nbr`` the ``B * W * S``
    neighbour vectors in any shape (``S = num_neighbors``).  The
    hand-written backward replays the float operations of the op-by-op
    composition (``attention_pool_reference`` in
    ``tests/autograd_reference.py``), so outputs and gradients are bitwise
    the composition's: the user gradient sums ``(B, W, S, d)`` products over
    ``W`` first and then over ``S``, skipping an axis of length one, as the
    composition's broadcast reduction does.
    """
    batch, width, __, dim = r.shape
    u4 = u.data.reshape(batch, 1, 1, dim)
    r_data = r.data
    nbr4 = nbr.data.reshape(batch, width, num_neighbors, dim)
    logits = (u4 * r_data).sum(axis=3)
    e = np.exp(logits - logits.max(axis=2, keepdims=True))
    att = e / e.sum(axis=2, keepdims=True)  # (B, W, S)
    att4 = att.reshape(batch, width, num_neighbors, 1)
    pooled = (att4 * nbr4).sum(axis=2)

    def backward(grad: np.ndarray) -> None:
        g = np.expand_dims(grad, 2)  # broadcast over the S neighbours
        if nbr.requires_grad:
            nbr._accumulate((g * att4).reshape(nbr.shape), owned=True)
        if not (u.requires_grad or r.requires_grad):
            return
        g_att = (g * nbr4).sum(axis=3)
        dot = (g_att * att).sum(axis=2, keepdims=True)
        g_logits = np.expand_dims(att * (g_att - dot), 3)
        if u.requires_grad:
            g_u = g_logits * r_data
            if width > 1:
                g_u = g_u.sum(axis=1, keepdims=True)
            if num_neighbors > 1:
                g_u = g_u.sum(axis=2, keepdims=True)
            u._accumulate(g_u.reshape(batch, dim), owned=True)
        if r.requires_grad:
            r._accumulate(g_logits * u4, owned=True)

    # Parent order (u, r, nbr) keeps the tape's topological order, and with
    # it every later accumulation, the composition's.
    return Tensor._make(pooled, (u, r, nbr), backward)


@register_model("KGCN")
class KGCN(GradientRecommender):
    """GNN over the item KG with user-relation attention sampling."""

    requires_kg = True

    def __init__(
        self,
        dim: int = 16,
        hops: int = 1,
        num_neighbors: int = 16,
        aggregator: str = "sum",
        **kwargs,
    ) -> None:
        kwargs.setdefault("loss", "bce")
        super().__init__(dim=dim, **kwargs)
        if aggregator not in AGGREGATORS:
            raise ConfigError(f"aggregator must be one of {AGGREGATORS}")
        self.hops = max(1, hops)
        self.num_neighbors = num_neighbors
        self.aggregator = aggregator

    # ------------------------------------------------------------------ #
    def _build(self, dataset: Dataset, rng: np.random.Generator) -> None:
        kg = dataset.kg
        self.user = nn.Embedding(dataset.num_users, self.dim, seed=rng)
        self.entity = nn.Embedding(kg.num_entities, self.dim, seed=rng)
        # +1 relation row for the self-loop used by isolated entities.
        self.relation = nn.Embedding(kg.num_relations + 1, self.dim, seed=rng)
        if self.aggregator == "concat":
            self.agg_weights = [
                nn.Linear(2 * self.dim, self.dim, seed=rng) for __ in range(self.hops)
            ]
        elif self.aggregator == "bi-interaction":
            self.agg_weights = [
                (nn.Linear(self.dim, self.dim, seed=rng), nn.Linear(self.dim, self.dim, seed=rng))
                for __ in range(self.hops)
            ]
        else:
            self.agg_weights = [
                nn.Linear(self.dim, self.dim, seed=rng) for __ in range(self.hops)
            ]

        # Static receptive fields per item entity: hop k holds S^k entities.
        cache = NeighborCache(kg)
        seeds = dataset.item_entities.astype(np.int64)
        self._ent_hops: list[np.ndarray] = [seeds.reshape(-1, 1)]
        self._rel_hops: list[np.ndarray] = []
        for __ in range(self.hops):
            frontier = self._ent_hops[-1]
            rels, nbrs = cache.sample(frontier.ravel(), self.num_neighbors, seed=rng)
            n_items = seeds.size
            self._ent_hops.append(nbrs.reshape(n_items, -1))
            self._rel_hops.append(rels.reshape(n_items, -1))

    def _attention(self, u: Tensor, rels: np.ndarray) -> Tensor:
        """User-relation scores pi = softmax_neighbors(u . r) (B, W, S): the
        weights :func:`attention_pool` applies inside its node, as a tape
        tensor (KGCN-LS propagates labels with them)."""
        batch = rels.shape[0]
        r = self.relation(rels.reshape(batch, -1, self.num_neighbors))
        logits = (u.reshape(batch, 1, 1, self.dim) * r).sum(axis=3)
        return ops.softmax(logits, axis=2)  # (B, W/S, S)

    def _aggregate(self, depth: int, self_vec: Tensor, nbr_vec: Tensor) -> Tensor:
        """One of the survey's four aggregators (Eq. 30-33)."""
        act = ops.tanh if depth == 0 else ops.relu
        if self.aggregator == "sum":
            return act(self.agg_weights[depth](self_vec + nbr_vec))
        if self.aggregator == "concat":
            return act(self.agg_weights[depth](ops.concat([self_vec, nbr_vec], axis=-1)))
        if self.aggregator == "neighbor":
            return act(self.agg_weights[depth](nbr_vec))
        w1, w2 = self.agg_weights[depth]
        return act(w1(self_vec + nbr_vec)) + act(w2(self_vec * nbr_vec))

    def _item_representation(self, users: np.ndarray, items: np.ndarray, u: Tensor) -> Tensor:
        batch = items.size
        vectors = [
            self.entity(hop[items]).reshape(batch, -1, self.dim)
            for hop in self._ent_hops
        ]
        for depth in reversed(range(self.hops)):
            rels = self._rel_hops[depth][items]  # (B, W*S)
            r = self.relation(rels.reshape(batch, -1, self.num_neighbors))  # (B, W, S, d)
            pooled = attention_pool(u, r, vectors[depth + 1], self.num_neighbors)
            vectors[depth] = self._aggregate(depth, vectors[depth], pooled)  # (B, W, d)
        return vectors[0].reshape(batch, self.dim)

    def _score_batch(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        u = self.user(users)
        v = self._item_representation(users, items, u)
        return (u * v).sum(axis=1)


@register_model("KGCN-LS")
class KGCNLS(KGCN):
    """KGCN + label-smoothness regularization on propagated labels."""

    def __init__(self, ls_weight: float = 0.5, **kwargs) -> None:
        super().__init__(**kwargs)
        self.ls_weight = ls_weight
        self._ls_batch: tuple[np.ndarray, np.ndarray] | None = None

    def _build(self, dataset: Dataset, rng: np.random.Generator) -> None:
        super()._build(dataset, rng)
        # entity -> aligned item id (or -1) for label lookup.
        kg = dataset.kg
        self._entity_item = np.full(kg.num_entities, -1, dtype=np.int64)
        for item, entity in enumerate(dataset.item_entities):
            self._entity_item[entity] = item

    def _propagated_label(self, users: np.ndarray, items: np.ndarray, u: Tensor) -> Tensor:
        """One-step label propagation over the hop-1 neighborhood.

        A neighbor entity carries label 1 if it is an item the user
        interacted with in training; the candidate's propagated label is the
        attention-weighted mean of its neighbors' labels, holding out the
        candidate itself (the LS leave-one-out rule).
        """
        dataset = self.fitted_dataset
        batch = items.size
        rels = self._rel_hops[0][items]  # (B, S)
        nbr_entities = self._ent_hops[1][items]  # (B, S)
        labels = np.zeros((batch, self.num_neighbors))
        for row, (user, item) in enumerate(zip(users, items)):
            history = set(dataset.interactions.items_of(int(user)).tolist())
            history.discard(int(item))  # hold out the candidate
            for col, entity in enumerate(nbr_entities[row]):
                aligned = self._entity_item[entity]
                if aligned >= 0 and int(aligned) in history:
                    labels[row, col] = 1.0
        att = self._attention(u, rels).reshape(batch, self.num_neighbors)
        return (att * Tensor(labels)).sum(axis=1)

    def _batch_loss(self, users, positives, n_items, rng) -> Tensor:
        base = super()._batch_loss(users, positives, n_items, rng)
        if self.ls_weight <= 0:
            return base
        negatives = rng.integers(0, n_items, size=users.size)
        all_users = np.concatenate([users, negatives * 0 + users])
        all_items = np.concatenate([positives, negatives])
        labels = np.concatenate([np.ones(users.size), np.zeros(users.size)])
        u = self.user(all_users)
        propagated = self._propagated_label(all_users, all_items, u)
        ls = losses.mse_loss(propagated, labels)
        return base + ls * self.ls_weight
