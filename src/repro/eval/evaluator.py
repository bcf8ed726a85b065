"""End-to-end evaluation protocol.

For every user with held-out items, :class:`Evaluator` ranks the full item
catalog excluding training interactions (the full-sort protocol), computes
the top-K metrics of :mod:`repro.eval.metrics`, and computes AUC on the
held-out positives against sampled unseen negatives.  Results are averaged
over users.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dataset import Dataset
from repro.core.exceptions import EvaluationError
from repro.core.recommender import Recommender
from repro.core.rng import ensure_rng

from . import metrics

__all__ = ["EvalResult", "Evaluator"]


@dataclass(frozen=True)
class EvalResult:
    """Averaged metrics for one model on one split."""

    model: str
    values: dict[str, float]
    num_users: int

    def __getitem__(self, key: str) -> float:
        return self.values[key]

    def row(self, columns: list[str]) -> list[float]:
        return [self.values[c] for c in columns]


class Evaluator:
    """Evaluates recommenders on a train/test split.

    Parameters
    ----------
    train, test:
        Datasets sharing shape and KG; ``test.interactions`` holds the
        held-out feedback.
    k_values:
        Cutoffs for top-K metrics.
    num_negatives:
        Negatives sampled per user for AUC.
    max_users:
        Optional cap on evaluated users (speeds up large sweeps); users are
        subsampled deterministically from ``seed``.
    """

    def __init__(
        self,
        train: Dataset,
        test: Dataset,
        k_values: tuple[int, ...] = (5, 10),
        num_negatives: int = 50,
        max_users: int | None = None,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if train.interactions.shape != test.interactions.shape:
            raise EvaluationError("train/test must share the matrix shape")
        self.train = train
        self.test = test
        self.k_values = tuple(k_values)
        self.num_negatives = num_negatives
        rng = ensure_rng(seed)

        eligible = [
            u
            for u in range(test.num_users)
            if test.interactions.items_of(u).size > 0
        ]
        if not eligible:
            raise EvaluationError("no user has held-out interactions")
        if max_users is not None and len(eligible) > max_users:
            eligible = list(
                rng.choice(np.asarray(eligible), size=max_users, replace=False)
            )
        self.users = [int(u) for u in eligible]
        # Pre-sample AUC negatives per user so every model sees the same set.
        self._negatives: dict[int, np.ndarray] = {}
        num_items = train.num_items
        for u in self.users:
            seen = set(train.interactions.items_of(u).tolist())
            seen |= set(test.interactions.items_of(u).tolist())
            pool = np.asarray(
                [v for v in range(num_items) if v not in seen], dtype=np.int64
            )
            if pool.size == 0:
                continue
            take = min(self.num_negatives, pool.size)
            self._negatives[u] = rng.choice(pool, size=take, replace=False)

    # ------------------------------------------------------------------ #
    def _rank_users(self, model: Recommender):
        """Yield ``(relevant, top order, AUC or None)`` per evaluated user.

        One copy of each user's scores: AUC reads the raw scores, then the
        copy is masked in place (training items to ``-inf``) and ranked.
        """
        if not model.is_fitted:
            raise EvaluationError("model must be fitted before evaluation")
        depth = max(self.k_values) * 4
        for user in self.users:
            relevant = set(self.test.interactions.items_of(user).tolist())
            scores = np.array(model.score_all(user), dtype=np.float64)
            negatives = self._negatives.get(user)
            auc_value = (
                metrics.auc(scores[list(relevant)], scores[negatives])
                if negatives is not None and negatives.size
                else None
            )
            scores[self.train.interactions.items_of(user)] = -np.inf
            order = np.argsort(-scores, kind="stable")[:depth]
            yield relevant, order, auc_value

    def evaluate(self, model: Recommender, name: str | None = None) -> EvalResult:
        """Average metrics for a fitted model over all evaluated users."""
        per_metric: dict[str, list[float]] = {}

        def push(key: str, value: float) -> None:
            per_metric.setdefault(key, []).append(value)

        for relevant, order, auc_value in self._rank_users(model):
            for k in self.k_values:
                push(f"Precision@{k}", metrics.precision_at_k(order, relevant, k))
                push(f"Recall@{k}", metrics.recall_at_k(order, relevant, k))
                push(f"NDCG@{k}", metrics.ndcg_at_k(order, relevant, k))
                push(f"HR@{k}", metrics.hit_ratio_at_k(order, relevant, k))
            push("MRR", metrics.reciprocal_rank(order, relevant))
            if auc_value is not None:
                push("AUC", auc_value)

        values = {key: float(np.mean(vals)) for key, vals in per_metric.items()}
        return EvalResult(
            model=name or type(model).__name__,
            values=values,
            num_users=len(self.users),
        )

    def per_user_metric(self, model: Recommender, metric: str = "AUC") -> np.ndarray:
        """Per-user values of one metric (for significance testing)."""
        if metric == "AUC":
            rows = [auc for __, ___, auc in self._rank_users(model) if auc is not None]
        else:
            label, __, k_str = metric.partition("@")
            fn = {
                "Precision": metrics.precision_at_k,
                "Recall": metrics.recall_at_k,
                "NDCG": metrics.ndcg_at_k,
                "HR": metrics.hit_ratio_at_k,
            }[label]
            k = int(k_str) if k_str else max(self.k_values)
            rows = [fn(order, rel, k) for rel, order, __ in self._rank_users(model)]
        return np.asarray(rows, dtype=np.float64)
