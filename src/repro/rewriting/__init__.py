"""The verified rewriting framework: patterns, matching, application,
the term-level e-graph behind the purify step, and the five-phase
out-of-order pipeline.

The exports are lazy (see :mod:`repro._lazy`): importing this package, or
a rule module under :mod:`repro.rewriting.rules`, loads none of them, so
discharging rewrite obligations never loads the pipeline
(:mod:`~repro.rewriting.pipeline`) or the purify e-graph
(:mod:`~repro.rewriting.egraph`).  Each name imports its defining module
on first access.
"""

from .._lazy import lazy_exports

#: Each public name and the module that defines it.
_EXPORTS = {
    "Application": ".apply",
    "apply_rewrite": ".apply",
    "RewriteEngine": ".engine",
    "find_matches": ".matcher",
    "first_match": ".matcher",
    "GraphitiPipeline": ".pipeline",
    "TransformResult": ".pipeline",
    "remove_identity_wires": ".pipeline",
    "PurityError": ".purify",
    "Region": ".purify",
    "compose_region": ".purify",
    "discover_region": ".purify",
    "purify_rewrite": ".purify",
    "Match": ".rewrite",
    "Rewrite": ".rewrite",
    "Var": ".rewrite",
    "pattern": ".rewrite",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
