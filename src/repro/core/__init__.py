"""Core abstractions: datasets, interactions, splits, the model API."""

from .clock import Clock, ManualClock, system_clock
from .dataset import Dataset
from .exceptions import (
    CheckpointError,
    ConfigError,
    DataError,
    EvaluationError,
    GraphError,
    KgrecError,
    NotFittedError,
    TrainingDivergedError,
)
from .interactions import InteractionMatrix
from .recommender import Explanation, Recommender
from .registry import (
    SURVEY_TABLE3,
    TECHNIQUES,
    ModelCard,
    Usage,
    card_for,
    get_model_class,
    is_implemented,
    list_registered,
    register_model,
)
from .rng import ensure_rng
from .splitter import cold_start_item_split, random_split

__all__ = [
    "Clock",
    "ManualClock",
    "system_clock",
    "Dataset",
    "InteractionMatrix",
    "Recommender",
    "Explanation",
    "KgrecError",
    "ConfigError",
    "DataError",
    "GraphError",
    "NotFittedError",
    "EvaluationError",
    "TrainingDivergedError",
    "CheckpointError",
    "ensure_rng",
    "random_split",
    "cold_start_item_split",
    "Usage",
    "TECHNIQUES",
    "ModelCard",
    "SURVEY_TABLE3",
    "register_model",
    "get_model_class",
    "list_registered",
    "card_for",
    "is_implemented",
]
