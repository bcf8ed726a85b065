"""Evaluation: metrics, protocols, cold-start studies, explanations,
significance testing."""

from .coldstart import cold_start_study, sparsity_sweep
from .evaluator import EvalResult, Evaluator
from .explain import (
    explanation_fidelity,
    grounded_in_history,
    is_valid_explanation,
)
from .ranking import sampled_ranking_evaluation
from .metrics import (
    auc,
    hit_ratio_at_k,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
    reciprocal_rank,
)
from .significance import bootstrap_ci, paired_permutation_test

__all__ = [
    "Evaluator",
    "EvalResult",
    "auc",
    "precision_at_k",
    "recall_at_k",
    "hit_ratio_at_k",
    "ndcg_at_k",
    "reciprocal_rank",
    "sampled_ranking_evaluation",
    "sparsity_sweep",
    "cold_start_study",
    "is_valid_explanation",
    "grounded_in_history",
    "explanation_fidelity",
    "bootstrap_ci",
    "paired_permutation_test",
]
