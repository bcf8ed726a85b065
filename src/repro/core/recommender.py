"""Base recommender API and explanation objects.

Every model in the library implements the interface from Section 2.2 of the
survey: learn representations, learn a scoring function
``f: u_i x v_j -> y_hat_ij``, and recommend by sorting preference scores.
Path-based and unified models additionally support :meth:`Recommender.explain`
returning KG paths that justify a recommendation (Section 4's
"explainable recommendation" thread).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .exceptions import DataError, NotFittedError

__all__ = ["Explanation", "Recommender"]


@dataclass(frozen=True)
class Explanation:
    """A justification for recommending ``item_id`` to ``user_id``.

    ``entities`` and ``relations`` encode a KG path
    ``e_0 --r_1--> e_1 --r_2--> ... --r_k--> e_k`` with
    ``len(entities) == len(relations) + 1``.  Rule- or similarity-style
    explanations use ``detail`` and may leave the path empty.
    """

    user_id: int
    item_id: int
    kind: str
    score: float
    entities: tuple[int, ...] = ()
    relations: tuple[int, ...] = ()
    detail: str = ""

    def __post_init__(self) -> None:
        if self.entities and len(self.entities) != len(self.relations) + 1:
            raise DataError("a path needs exactly len(entities)-1 relations")

    def render(self, kg=None) -> str:
        """Human-readable form, resolving labels through ``kg`` when given."""
        if not self.entities:
            return self.detail or f"{self.kind} (score={self.score:.4f})"
        ent = (
            [kg.entity_label(e) for e in self.entities]
            if kg is not None
            else [f"e{e}" for e in self.entities]
        )
        rel = (
            [kg.relation_label(r) for r in self.relations]
            if kg is not None
            else [f"r{r}" for r in self.relations]
        )
        parts = [ent[0]]
        for r, e in zip(rel, ent[1:]):
            parts.append(f"--[{r}]--> {e}")
        return " ".join(parts)


class Recommender(abc.ABC):
    """Abstract base class for all recommendation models.

    Subclasses implement :meth:`fit` and :meth:`score_all`; ranking and
    pairwise prediction are derived.  Models requiring a knowledge graph
    should declare ``requires_kg = True`` so harnesses can check datasets.
    """

    requires_kg: bool = False
    supports_explanations: bool = False

    def __init__(self) -> None:
        self._dataset: Dataset | None = None

    # ------------------------------------------------------------------ #
    # to be implemented by subclasses
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def fit(self, dataset: Dataset) -> "Recommender":
        """Train on ``dataset`` (its interactions are the training split)."""

    @abc.abstractmethod
    def score_all(self, user_id: int) -> np.ndarray:
        """Preference scores for every item: shape ``(num_items,)``."""

    # ------------------------------------------------------------------ #
    # derived API
    # ------------------------------------------------------------------ #
    def predict(self, user_ids: np.ndarray, item_ids: np.ndarray) -> np.ndarray:
        """Element-wise scores for parallel ``user_ids`` / ``item_ids``."""
        user_ids = np.asarray(user_ids, dtype=np.int64)
        item_ids = np.asarray(item_ids, dtype=np.int64)
        if user_ids.shape != item_ids.shape:
            raise DataError("user_ids and item_ids must have the same shape")
        scores = np.empty(user_ids.size, dtype=np.float64)
        cache: dict[int, np.ndarray] = {}
        for pos, (u, v) in enumerate(zip(user_ids.ravel(), item_ids.ravel())):
            if int(u) not in cache:
                cache[int(u)] = self.score_all(int(u))
            scores[pos] = cache[int(u)][int(v)]
        return scores.reshape(user_ids.shape)

    def recommend(
        self, user_id: int, k: int = 10, exclude_seen: bool = True
    ) -> np.ndarray:
        """Top-``k`` item ids by descending preference score."""
        dataset = self.fitted_dataset
        scores = np.array(self.score_all(user_id), dtype=np.float64, copy=True)
        if exclude_seen:
            seen = dataset.interactions.items_of(user_id)
            scores[seen] = -np.inf
        k = min(k, scores.size)
        top = np.argpartition(-scores, k - 1)[:k]
        return top[np.argsort(-scores[top], kind="stable")].astype(np.int64)

    def explain(self, user_id: int, item_id: int) -> list[Explanation]:
        """Explanations for (user, item); empty when unsupported."""
        return []

    @property
    def explanation_dataset(self) -> Dataset:
        """The dataset whose KG the model's explanations refer to.

        Models that internally lift the item graph into a user-item graph
        (KGAT, PGPR, ...) override this so explanation paths validate
        against the graph they were actually found in.
        """
        return self.fitted_dataset

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        return self._dataset is not None

    @property
    def fitted_dataset(self) -> Dataset:
        if self._dataset is None:
            raise NotFittedError(f"{type(self).__name__} has not been fitted")
        return self._dataset

    def _mark_fitted(self, dataset: Dataset) -> None:
        if self.requires_kg:
            if dataset.kg is None:
                raise DataError(
                    f"{type(self).__name__} requires a dataset with a knowledge graph"
                )
            if dataset.item_entities is None or (dataset.item_entities < 0).any():
                raise DataError(
                    f"{type(self).__name__} requires every item aligned to a KG "
                    "entity (item_entities must be set with no -1 entries)"
                )
        self._dataset = dataset

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "fitted" if self.is_fitted else "unfitted"
        return f"{type(self).__name__}({state})"
