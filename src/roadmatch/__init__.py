"""Topological change detection between road-network snapshots.

The names below are the library's entry points; everything else is
imported from its submodule (``roadmatch.labeling``, ``roadmatch.matcher``
and so on).
"""

from .errors import ConfigurationError, InputError, InternalError, RoadmatchError
from .generator import gen_irregular_grid, perturb
from .graph import EmbeddedGraph, verify_conformal
from .ingest import emit_erg, parse_erg
from .matcher import MatchResult, match

__all__ = [
    "ConfigurationError",
    "EmbeddedGraph",
    "InputError",
    "InternalError",
    "MatchResult",
    "RoadmatchError",
    "emit_erg",
    "gen_irregular_grid",
    "match",
    "parse_erg",
    "perturb",
    "verify_conformal",
]

__version__ = "0.1.0"
