"""Train/test splitting protocols.

Two protocols cover the evaluation styles used across the surveyed papers:

* :func:`random_split` — per-interaction holdout (RippleNet, KGCN, MKR, ...).
* :func:`cold_start_item_split` — a fraction of *items* appears only in the
  test set, simulating the item cold-start regime the survey motivates.

Each returns ``(train, test)`` as two :class:`~repro.core.dataset.Dataset`
objects sharing the same knowledge graph and alignments.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset
from .exceptions import DataError
from .interactions import InteractionMatrix
from .rng import ensure_rng

__all__ = ["random_split", "cold_start_item_split"]


def _rebuild(dataset: Dataset, pairs: np.ndarray) -> Dataset:
    matrix = InteractionMatrix.from_pairs(
        pairs, dataset.num_users, dataset.num_items
    )
    return dataset.with_interactions(matrix)


def random_split(
    dataset: Dataset,
    test_fraction: float = 0.2,
    seed: int | np.random.Generator | None = None,
) -> tuple[Dataset, Dataset]:
    """Randomly hold out ``test_fraction`` of interactions.

    Every user with at least two interactions keeps at least one in train, so
    trained models always have some history per evaluated user.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError("test_fraction must be in (0, 1)")
    rng = ensure_rng(seed)
    pairs = dataset.interactions.pairs()
    if pairs.shape[0] < 2:
        raise DataError("need at least two interactions to split")

    order = rng.permutation(pairs.shape[0])
    n_test = max(1, int(round(test_fraction * pairs.shape[0])))
    test_idx = set(order[:n_test].tolist())

    # Guarantee each user keeps one training interaction.
    train_mask = np.ones(pairs.shape[0], dtype=bool)
    train_mask[list(test_idx)] = False
    for user_id in np.unique(pairs[:, 0]):
        rows = np.flatnonzero(pairs[:, 0] == user_id)
        if rows.size >= 2 and not train_mask[rows].any():
            keep = rows[rng.integers(0, rows.size)]
            train_mask[keep] = True
    return _rebuild(dataset, pairs[train_mask]), _rebuild(dataset, pairs[~train_mask])


def cold_start_item_split(
    dataset: Dataset,
    cold_fraction: float = 0.2,
    seed: int | np.random.Generator | None = None,
) -> tuple[Dataset, Dataset, np.ndarray]:
    """Reserve a fraction of items as cold: all their feedback goes to test.

    Returns ``(train, test, cold_item_ids)``.  Cold items have zero training
    interactions, so pure-CF models cannot score them better than chance while
    KG-aware models can exploit the item graph — the survey's core motivation.
    """
    if not 0.0 < cold_fraction < 1.0:
        raise DataError("cold_fraction must be in (0, 1)")
    rng = ensure_rng(seed)
    degrees = dataset.interactions.item_degrees()
    candidates = np.flatnonzero(degrees > 0)
    if candidates.size < 2:
        raise DataError("need at least two interacted items for a cold split")
    n_cold = max(1, int(round(cold_fraction * candidates.size)))
    cold = rng.choice(candidates, size=min(n_cold, candidates.size - 1), replace=False)
    cold_set = set(cold.tolist())

    pairs = dataset.interactions.pairs()
    is_cold = np.fromiter(
        (int(v) in cold_set for v in pairs[:, 1]), dtype=bool, count=pairs.shape[0]
    )
    train = _rebuild(dataset, pairs[~is_cold])
    test = _rebuild(dataset, pairs[is_cold])
    return train, test, np.sort(cold).astype(np.int64)
