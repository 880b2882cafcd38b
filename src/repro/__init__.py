"""Graphiti, reproduced in Python.

A reproduction of *"Graphiti: Formally Verified Out-of-Order Execution in
Dataflow Circuits"* (ASPLOS 2026): the ExprHigh/ExprLow graph languages,
executable module semantics with the paper's combinators, a bounded
weak-simulation refinement checker standing in for the Lean proofs, the
rewriting engine with the five-phase out-of-order pipeline, an e-graph
oracle, a cycle-level elastic-circuit simulator, and the full evaluation
harness (Tables 2-3, Figure 8, the section 6.3 statistics, and the bicg
bug).

Quick tour::

    from repro import Session

    session = Session(jobs=4)          # parallel + cached execution
    session.transform(graph=g, mark=m) # the OoO pipeline
    session.check_obligations()        # discharge every rewrite obligation, certified
    session.bench(name="matvec")       # the evaluation harness
    print(session.report())            # Tables 2-3 + Figure 8

:class:`Session` (see :mod:`repro.api`) is the facade over the lower-level
pieces, which remain importable::

    from repro import (
        default_environment, ExprHigh, denote,        # build + denote graphs
        refines, check_rewrite_obligation,            # refinement checking
        GraphitiPipeline,                             # the OoO pipeline
    )

(The deprecated ``repro.run_benchmark`` shim was removed in v1.5 — use
``Session(...).bench(name=...)``; see the migration table in ``docs/api.md``.)

See README.md for the architecture overview and examples/ for runnable
walkthroughs.
"""

from ._version import __version__
from .api import Session
from .components import default_environment
from .core import (
    Environment,
    ExprHigh,
    ExprLow,
    Module,
    NodeSpec,
    denote,
)
from .dot import parse_dot, print_dot
from .errors import GraphitiError, ResultSchemaError, ServiceError
from .refinement import (
    check_rewrite_obligation,
    find_weak_simulation,
    refines,
    trace_inclusion,
)
from .rewriting import GraphitiPipeline, Rewrite, RewriteEngine, Var

__all__ = [
    "Session",
    "default_environment",
    "Environment",
    "ExprHigh",
    "ExprLow",
    "Module",
    "NodeSpec",
    "denote",
    "parse_dot",
    "print_dot",
    "GraphitiError",
    "ResultSchemaError",
    "ServiceError",
    "check_rewrite_obligation",
    "find_weak_simulation",
    "refines",
    "trace_inclusion",
    "GraphitiPipeline",
    "Rewrite",
    "RewriteEngine",
    "Var",
    "__version__",
]
