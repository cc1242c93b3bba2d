"""Exact nearest-neighbor search with LSH: confirmation sampling, hash-table
sequences, the LSH Forest trie, and the fully adaptive forest query."""

from .adaptive import (
    AdaptiveConfig,
    AdaptiveResult,
    ForestEnsemble,
    adaptive_nearest_neighbor,
    build_ensemble,
)
from .confirmation import (
    CsResult,
    CsState,
    DiscreteDistribution,
    confirmation_sampling,
    exact_output_distribution,
    expected_samples_bound,
    failure_bound,
)
from .core import (
    CostCounters,
    Dataset,
    FormatError,
    Metric,
    RngSeed,
    distance,
)
from .families import (
    BitSampling,
    HashSpec,
    LshFamily,
    SignRandomProjection,
    pack_strings,
)
from .forest import (
    Forest,
    build_forest,
    forest_from_bytes,
    forest_to_bytes,
    load_forest,
    save_forest,
)
from .oracle import (
    DistanceProfile,
    OptReport,
    static_level_choice,
    brute_force_nn,
    natural_algorithm,
    opt_report,
    profile,
    simulate_cs,
)
from .tables import NnResult, SequenceExhausted, TableSequence

__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig",
    "AdaptiveResult",
    "BitSampling",
    "CostCounters",
    "CsResult",
    "CsState",
    "Dataset",
    "DiscreteDistribution",
    "DistanceProfile",
    "Forest",
    "FormatError",
    "ForestEnsemble",
    "HashSpec",
    "LshFamily",
    "Metric",
    "NnResult",
    "OptReport",
    "RngSeed",
    "SequenceExhausted",
    "SignRandomProjection",
    "TableSequence",
    "adaptive_nearest_neighbor",
    "static_level_choice",
    "brute_force_nn",
    "build_ensemble",
    "build_forest",
    "confirmation_sampling",
    "distance",
    "exact_output_distribution",
    "expected_samples_bound",
    "failure_bound",
    "forest_from_bytes",
    "forest_to_bytes",
    "load_forest",
    "natural_algorithm",
    "opt_report",
    "pack_strings",
    "profile",
    "save_forest",
    "simulate_cs",
]
