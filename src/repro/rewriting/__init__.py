"""The verified rewriting framework: patterns, matching, application,
the term-level e-graph behind the purify step, and the five-phase
out-of-order pipeline."""

from .apply import Application, apply_rewrite
from .engine import RewriteEngine
from .matcher import find_matches, first_match
from .pipeline import GraphitiPipeline, TransformResult, remove_identity_wires
from .purify import PurityError, Region, compose_region, discover_region, purify_rewrite
from .rewrite import Match, Rewrite, Var, pattern

__all__ = [
    "Application",
    "apply_rewrite",
    "RewriteEngine",
    "find_matches",
    "first_match",
    "GraphitiPipeline",
    "TransformResult",
    "remove_identity_wires",
    "PurityError",
    "Region",
    "compose_region",
    "discover_region",
    "purify_rewrite",
    "Match",
    "Rewrite",
    "Var",
    "pattern",
]
