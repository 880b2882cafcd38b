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

The exports are lazy (PEP 562): ``import repro`` loads only
:mod:`repro._version` and the helper :mod:`repro._lazy`, and each name
above imports its defining module on first access (``repro.Session``
loads :mod:`repro.api`, not the rewriting pipeline, the simulator or
numpy).  ``from repro import *`` and ``from repro import Session`` work
as for any module.

See README.md for the architecture overview and examples/ for runnable
walkthroughs.
"""

from ._lazy import lazy_exports
from ._version import __version__

#: Each public name and the module that defines it.
_EXPORTS = {
    "Session": ".api",
    "default_environment": ".components",
    "Environment": ".core.environment",
    "ExprHigh": ".core.exprhigh",
    "ExprLow": ".core.exprlow",
    "Module": ".core.module",
    "NodeSpec": ".core.exprhigh",
    "denote": ".core.semantics",
    "parse_dot": ".dot.parser",
    "print_dot": ".dot.printer",
    "GraphitiError": ".errors",
    "ResultSchemaError": ".errors",
    "ServiceError": ".errors",
    "check_rewrite_obligation": ".refinement.checker",
    "find_weak_simulation": ".refinement.simulation",
    "refines": ".refinement.checker",
    "GraphitiPipeline": ".rewriting.pipeline",
    "Rewrite": ".rewriting.rewrite",
    "RewriteEngine": ".rewriting.engine",
    "Var": ".rewriting.rewrite",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
