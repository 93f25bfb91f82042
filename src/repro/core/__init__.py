"""ReStore core: completion models, incompleteness join, selection, confidence."""

from .path_data import (
    PathLayout,
    TrainingData,
    VariableSpec,
    assemble_training_data,
    build_encoders,
)
from ..relational.keys import ChildIndex, build_child_index
from .forest import EvidenceForest
from .models import (
    ARCompletionModel,
    CompletionSnapshot,
    ModelConfig,
    SSARCompletionModel,
)
from .merging import MergedGroup, compatible_order, merge_paths, training_savings
from .incompleteness_join import CompletedJoin, IncompletenessJoin
from .nn_replacement import EuclideanReplacer, TupleSpace
from .selection import (
    BiasDirection,
    CandidateScore,
    SuspectedBias,
    apply_suspected_bias,
    basic_filter,
    rank_by_derived_scenario,
    score_candidates,
)
from .confidence import ConfidenceBand, ConfidenceEstimator, band_for_query
from .progressive import Refinement, SamplingBudget
from .engine import Answer, ReStore, ReStoreConfig

__all__ = [
    "PathLayout",
    "TrainingData",
    "VariableSpec",
    "assemble_training_data",
    "build_encoders",
    "ChildIndex",
    "EvidenceForest",
    "build_child_index",
    "ARCompletionModel",
    "SSARCompletionModel",
    "CompletionSnapshot",
    "ModelConfig",
    "MergedGroup",
    "merge_paths",
    "compatible_order",
    "training_savings",
    "CompletedJoin",
    "IncompletenessJoin",
    "EuclideanReplacer",
    "TupleSpace",
    "BiasDirection",
    "SuspectedBias",
    "CandidateScore",
    "score_candidates",
    "basic_filter",
    "rank_by_derived_scenario",
    "apply_suspected_bias",
    "ConfidenceBand",
    "ConfidenceEstimator",
    "band_for_query",
    "Refinement",
    "SamplingBudget",
    "Answer",
    "ReStore",
    "ReStoreConfig",
]
