"""RKGE — Recurrent Knowledge Graph Embedding (Sun et al., RecSys 2018).

RKGE mines the semantic paths between a user and a candidate item
automatically (no hand-picked meta-paths), encodes each path's entity
sequence with a recurrent network, average-pools the final hidden states
(survey Eq. 19), and maps the pooled relation representation to a
preference score with a fully-connected layer (Eq. 20 with
``y = f(h)``).
"""

from __future__ import annotations

import numpy as np

from repro.autograd import nn
from repro.autograd.tensor import Tensor
from repro.core.dataset import Dataset
from repro.core.recommender import Explanation
from repro.core.registry import register_model

from ..common import GradientRecommender
from . import common
from .pathsampling import PathBank

__all__ = ["RKGE"]


@register_model("RKGE")
class RKGE(GradientRecommender):
    """GRU encoding of auto-mined user-item paths, average-pooled."""

    requires_kg = True
    supports_explanations = True

    def __init__(
        self,
        dim: int = 16,
        max_path_length: int = 3,
        max_paths: int = 3,
        **kwargs,
    ) -> None:
        kwargs.setdefault("epochs", 6)
        kwargs.setdefault("batch_size", 64)
        super().__init__(dim=dim, loss="bpr", **kwargs)
        self.max_path_length = max_path_length
        self.max_paths = max_paths

    def _build(self, dataset: Dataset, rng: np.random.Generator) -> None:
        self._lifted = common.lift(dataset)
        kg = self._lifted.kg
        self.entity = nn.Embedding(kg.num_entities, self.dim, seed=rng)
        self.gru = nn.GRUCell(self.dim, self.dim, seed=rng)
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
    def _encode_paths(
        self, users: np.ndarray, items: np.ndarray
    ) -> Tensor:
        """Pooled path representation h for each (user, item) pair.

        All paths across the batch are padded to a common length and
        encoded by one vectorized GRU run; each pair then average-pools its
        own paths via an assignment matrix.  Pairs without any path pool to
        the zero vector.
        """
        batch = users.size
        seqs: list[tuple[int, list[int]]] = []  # (pair_row, entity sequence)
        for row, (u, v) in enumerate(zip(users, items)):
            for path in self._bank.paths(int(u), int(v)):
                seqs.append((row, list(path.entities)))
        if not seqs:
            return Tensor(np.zeros((batch, self.dim)))

        max_len = max(len(s) for __, s in seqs)
        num_paths = len(seqs)
        ent_idx = np.zeros((num_paths, max_len), dtype=np.int64)
        mask = np.zeros((num_paths, max_len))
        assign = np.zeros((batch, num_paths))
        for p, (row, seq) in enumerate(seqs):
            ent_idx[p, : len(seq)] = seq
            mask[p, : len(seq)] = 1.0
            assign[row, p] = 1.0
        counts = assign.sum(axis=1, keepdims=True)
        assign = np.divide(assign, counts, out=np.zeros_like(assign), where=counts > 0)

        h = self.gru.initial_state(num_paths)
        for step in range(max_len):
            x = self.entity(ent_idx[:, step])
            h_next = self.gru(x, h)
            gate = Tensor(mask[:, step : step + 1])
            h = h_next * gate + h * (1.0 - gate)
        return Tensor(assign) @ h  # (B, d) average pool per pair

    def _score_batch(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        pooled = self._encode_paths(users, items)
        return self.scorer(pooled).reshape(users.size)

    # ------------------------------------------------------------------ #
    def explain(self, user_id: int, item_id: int) -> list[Explanation]:
        paths = self._bank.paths(user_id, item_id)
        score = float(self.predict(np.asarray([user_id]), np.asarray([item_id]))[0])
        return [
            Explanation(
                user_id=user_id,
                item_id=item_id,
                kind="rkge-path",
                score=score,
                entities=p.entities,
                relations=p.relations,
            )
            for p in paths[:3]
        ]
