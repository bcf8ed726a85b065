"""Link-prediction evaluation for KG embedding models.

The standard KG completion protocol: for each test fact ``(h, r, t)``, rank
the true tail against all entities (and the true head likewise), filtering
out other known facts, then report MRR and Hits@K.  Used by the KGE bench
(Study E5) to compare translation-distance and semantic-matching models,
the comparison the survey's "Future Directions" section calls for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.exceptions import EvaluationError

from .triples import TripleStore

__all__ = ["LinkPredictionResult", "evaluate_link_prediction"]


@dataclass(frozen=True)
class LinkPredictionResult:
    """Aggregated filtered ranks over a test set."""

    mrr: float
    hits_at_1: float
    hits_at_3: float
    hits_at_10: float
    mean_rank: float
    num_queries: int

    def as_dict(self) -> dict[str, float]:
        return {
            "MRR": self.mrr,
            "Hits@1": self.hits_at_1,
            "Hits@3": self.hits_at_3,
            "Hits@10": self.hits_at_10,
            "MeanRank": self.mean_rank,
            "queries": float(self.num_queries),
        }


def evaluate_link_prediction(
    score_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    test_triples: np.ndarray,
    known: TripleStore,
    num_entities: int,
    both_sides: bool = True,
) -> LinkPredictionResult:
    """Filtered link-prediction metrics.

    Parameters
    ----------
    score_fn:
        Vectorized plausibility function over parallel ``(h, r, t)`` arrays;
        *higher* means more plausible.
    test_triples:
        ``(n, 3)`` array of held-out facts.
    known:
        All facts (train + test) used for filtering competing candidates.
    both_sides:
        Rank both tail replacement and head replacement (the usual protocol).
    """
    test_triples = np.asarray(test_triples, dtype=np.int64)
    if test_triples.ndim != 2 or test_triples.shape[1] != 3:
        raise EvaluationError("test_triples must be (n, 3)")
    if test_triples.shape[0] == 0:
        raise EvaluationError("empty link-prediction test set")

    candidates = np.arange(num_entities, dtype=np.int64)
    ranks: list[int] = []
    for h, r, t in test_triples:
        ranks.append(
            _filtered_rank(score_fn, int(h), int(r), int(t), candidates, known, "tail")
        )
        if both_sides:
            ranks.append(
                _filtered_rank(
                    score_fn, int(h), int(r), int(t), candidates, known, "head"
                )
            )

    rank_arr = np.asarray(ranks, dtype=np.float64)
    return LinkPredictionResult(
        mrr=float((1.0 / rank_arr).mean()),
        hits_at_1=float((rank_arr <= 1).mean()),
        hits_at_3=float((rank_arr <= 3).mean()),
        hits_at_10=float((rank_arr <= 10).mean()),
        mean_rank=float(rank_arr.mean()),
        num_queries=len(ranks),
    )


def _filtered_rank(
    score_fn,
    h: int,
    r: int,
    t: int,
    candidates: np.ndarray,
    known: TripleStore,
    side: str,
) -> int:
    n = candidates.size
    if side == "tail":
        heads, rels, tails = np.full(n, h), np.full(n, r), candidates
        true_id = t
    else:
        heads, rels, tails = candidates, np.full(n, r), np.full(n, t)
        true_id = h
    scores = np.asarray(score_fn(heads, rels, tails), dtype=np.float64).copy()
    # Filter competing true facts: every known candidate but the true one.
    mask = known.contains_batch(heads, rels, tails)
    mask[true_id] = False
    scores[mask] = -np.inf
    true_score = scores[true_id]
    # Rank = 1 + number of strictly better candidates; ties broken
    # optimistically-pessimistically averaged to keep the metric stable.
    better = int((scores > true_score).sum())
    equal = int((scores == true_score).sum()) - 1
    return better + 1 + equal // 2
