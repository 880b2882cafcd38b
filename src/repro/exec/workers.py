"""Module-level worker functions the executor fans out.

Each worker takes only picklable keyword arguments and returns a plain
JSON-serialisable dict (the executor and the cache both require this), so
the same function runs identically in-process and in a pool worker.  The
unit kinds mirror the serial entry points they wrap:

* :func:`eval_benchmark` — one benchmark through all four flows
  (:func:`repro.eval.runner.evaluate_program`: one compile, one
  reference run);
* :func:`check_obligation_certified` — one rewrite's refinement-obligation
  discharge through the persistent-certificate path: stored certificates
  are re-validated (O(relation)) instead of re-searching, with
  per-instance provenance;
* :func:`run_fuzz_case` — one differential fuzz case
  (:func:`repro.interop.corpus.run_fuzz_case`);
* :func:`cross_check_rewrite` — one rewrite's obligations decided by both
  the SAT oracle and the simulation game
  (:func:`repro.refinement.sat.cross_check_obligation`).

Environments are rebuilt inside the worker (they hold closures and are not
picklable); graphs and IR programs pickle directly.

Workers are instrumented like the serial entry points: each opens a span
(``bench:…``, ``obligation:…``, ``sat-check:…``, ``fuzz:case``) on
whatever tracer is active in its process, and counts there.  In-process
(serial) execution nests those spans under the executor's unit span
directly; in a pool worker the executor installs a private tracer around
the call and ships its counters (and, when tracing, its span subtree) back
to the parent (see :func:`repro.exec.executor._call_unit`).
"""

from __future__ import annotations

import importlib
from time import perf_counter

from .. import obs


def eval_benchmark(*, name: str, program) -> dict:
    """Evaluate one benchmark through all four flows; returns
    ``BenchmarkResult.to_dict()``."""
    from ..eval.runner import evaluate_program

    with obs.span(f"bench:{name}") as sp:
        result, _ = evaluate_program(program)
        sp.set(wrong=",".join(flow for flow, run in result.flows.items() if not run.correct))
    return result.to_dict()


def check_obligation_certified(
    *,
    module: str,
    factory: str,
    kwargs: dict | None = None,
    cache_dir: str | None = None,
) -> dict:
    """Discharge one rewrite's obligation through the certificate fast path.

    Every instance goes through
    :func:`repro.refinement.checker.check_rewrite_obligation` with a
    :class:`~repro.exec.cache.ResultCache` opened at *cache_dir*: a stored
    certificate is re-validated in one pass over its relation, and only on
    a miss (or a failed re-validation) is the simulation game solved from
    scratch.  The outcome dict records the per-instance provenance, so the
    caller can see whether the batch was searched, rechecked, or mixed.
    """
    from ..errors import RefinementError
    from ..refinement.checker import check_rewrite_obligation

    rewrite = getattr(importlib.import_module(module), factory)(**(kwargs or {}))
    if cache_dir:
        from pathlib import Path

        from .cache import ResultCache

        cache = ResultCache(Path(cache_dir))
    else:
        cache = None
    start = perf_counter()
    modes: list[str] = []
    hashes: list[str] = []
    holds, detail = True, ""
    with obs.span(f"obligation:{rewrite.name}", certified=True) as sp:
        for lhs, rhs, env, stimuli in rewrite.obligation() if rewrite.obligation else ():
            try:
                report = check_rewrite_obligation(lhs, rhs, env, stimuli, cache=cache)
            except RefinementError as exc:
                holds, detail = False, str(exc)
                break
            modes.append(report.mode)
            hashes.append(report.certificate.content_hash())
        if holds and not modes:  # no instance was checked, so nothing is proven
            holds, detail = False, f"rewrite {rewrite.name!r} has no obligation instances"
        sp.set(holds=holds, modes=",".join(modes))
    mode = "none"
    if modes:
        mode = modes[0] if len(set(modes)) == 1 else "mixed"
    return {
        "rewrite": rewrite.name,
        "verified_flag": bool(rewrite.verified),
        "holds": holds,
        "mode": mode,
        "instances": len(modes),
        "certificate_hashes": hashes,
        "detail": detail,
        "seconds": perf_counter() - start,
    }


def run_fuzz_case(*, seed: int) -> dict:
    """Run one differential fuzz case; returns the corpus-manifest entry.

    A thin instrumented wrapper over
    :func:`repro.interop.corpus.run_fuzz_case` — the case itself is a pure
    function of its seed, which is what makes its entry safe to serve from
    the content-addressed cache.
    """
    from ..interop.corpus import run_fuzz_case as run_case

    with obs.span("fuzz:case", seed=seed) as sp:
        entry = run_case(int(seed))
        sp.set(ok=entry["ok"], effectful=entry["effectful"])
    obs.count("interop.fuzz_cases")
    if not entry["ok"]:
        obs.count("interop.fuzz_failures")
    return entry


def cross_check_rewrite(
    *,
    module: str,
    factory: str,
    kwargs: dict | None = None,
    bound: int | None = None,
) -> dict:
    """Cross-check one rewrite's obligation: SAT oracle vs simulation game.

    Every obligation instance runs through
    :func:`repro.refinement.sat.cross_check_obligation`; a definitive
    disagreement between the two decision procedures is reported (not
    raised — the dict crosses the pool boundary) with both verdicts.
    """
    from ..errors import OracleDisagreement
    from ..refinement.sat import DEFAULT_BOUND, cross_check_obligation

    rewrite = getattr(importlib.import_module(module), factory)(**(kwargs or {}))
    bound = DEFAULT_BOUND if bound is None else int(bound)
    start = perf_counter()
    instances = []
    agreed, detail = True, ""
    with obs.span(f"sat-check:{rewrite.name}") as sp:
        for lhs, rhs, env, stimuli in rewrite.obligation() if rewrite.obligation else ():
            try:
                report = cross_check_obligation(lhs, rhs, env, stimuli=stimuli, bound=bound)
            except OracleDisagreement as exc:
                agreed, detail = False, str(exc)
                break
            instances.append(
                {
                    "holds": bool(report.game_holds),
                    "sat_holds": bool(report.sat.holds),
                    "complete": bool(report.sat.complete),
                    "pairs": int(report.sat.pairs_explored),
                    "variables": int(report.sat.variables),
                    "clauses": int(report.sat.clauses),
                }
            )
        if agreed and not instances:  # nothing was cross-checked, so nothing agreed
            agreed, detail = False, f"rewrite {rewrite.name!r} has no obligation instances"
        sp.set(agreed=agreed, instances=len(instances))
    return {
        "rewrite": rewrite.name,
        "agreed": agreed,
        "holds": all(entry["holds"] for entry in instances) if instances else False,
        "instances": instances,
        "detail": detail,
        "seconds": perf_counter() - start,
    }
