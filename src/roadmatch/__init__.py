"""Topological change detection between road-network snapshots."""

from .errors import ConfigurationError, InputError, InternalError, RoadmatchError
from .graph import EmbeddedGraph, verify_conformal
from .ingest import (
    SegmentSet,
    build_graph_from_segments,
    collapse_polylines,
    emit_erg,
    parse_erg,
    parse_segments,
)
from .labeling import canonical_start_rotations, label_nodes, lexicographic_bfs
from .matcher import MatchResult, MatchState, match, run_trial
from .metrics import (
    approximation_ratio,
    haversine_km,
    pair_distance_histogram,
    threshold_ratio,
)
from .generator import gen_irregular_grid, perturb, score_against_ground_truth
from .oracle import brute_force_max_conformal, exhaustive_flood_from
from .seed_index import SeedIndex, auto_tune_k, build_seed_index
from .veb import VebTree

__all__ = [
    "ConfigurationError",
    "EmbeddedGraph",
    "InputError",
    "InternalError",
    "MatchResult",
    "MatchState",
    "RoadmatchError",
    "SeedIndex",
    "SegmentSet",
    "VebTree",
    "approximation_ratio",
    "auto_tune_k",
    "brute_force_max_conformal",
    "build_graph_from_segments",
    "build_seed_index",
    "canonical_start_rotations",
    "collapse_polylines",
    "emit_erg",
    "exhaustive_flood_from",
    "gen_irregular_grid",
    "haversine_km",
    "label_nodes",
    "lexicographic_bfs",
    "match",
    "pair_distance_histogram",
    "parse_erg",
    "parse_segments",
    "perturb",
    "run_trial",
    "score_against_ground_truth",
    "threshold_ratio",
    "verify_conformal",
]

__version__ = "0.1.0"
