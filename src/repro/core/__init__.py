"""PropHunt: ambiguity-driven SM-circuit optimization."""

from .ambiguity import find_ambiguous_subgraph, is_ambiguous
from .changes import CandidateChange, enumerate_candidates
from .decoding_graph import DecodingGraph, Subgraph
from .minweight import (
    LogicalErrorSolution,
    build_maxsat_model,
    solve_min_weight_logical,
)
from .optimizer import (
    IterationRecord,
    PropHunt,
    PropHuntConfig,
    PropHuntResult,
)
from .pruning import PruneOutcome, check_candidate

__all__ = [
    "find_ambiguous_subgraph",
    "is_ambiguous",
    "CandidateChange",
    "enumerate_candidates",
    "DecodingGraph",
    "Subgraph",
    "LogicalErrorSolution",
    "build_maxsat_model",
    "solve_min_weight_logical",
    "IterationRecord",
    "PropHunt",
    "PropHuntConfig",
    "PropHuntResult",
    "PruneOutcome",
    "check_candidate",
]
