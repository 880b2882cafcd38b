"""Picklable worker functions used by the executor tests.

These live in a real module (not a test file) so the executor can resolve
them by name in pool workers as well as in-process.
"""

from __future__ import annotations

import gc
import os


def double(*, x: int) -> dict:
    return {"value": 2 * x}


def fail_always(*, message: str = "boom") -> dict:
    raise ValueError(message)


def collector_state() -> dict:
    """Whether the cyclic collector is on while this unit runs."""
    return {"enabled": gc.isenabled()}


def nested_collector_state() -> dict:
    """Run a unit inside this one; report the collector inside and after it."""
    from repro.exec.executor import Executor, WorkUnit

    [inner] = Executor(jobs=1).run([WorkUnit(uid="inner", fn=f"{__name__}:collector_state")])
    return {"inner": inner["enabled"], "after_inner": gc.isenabled()}


def crash_unless_parent(*, parent_pid: int, x: int) -> dict:
    """Hard-kill the process when run in a pool worker; succeed in-process.

    ``os._exit`` skips all cleanup, so inside a ProcessPoolExecutor worker
    this reliably produces a BrokenProcessPool — the worker-crash scenario
    the executor must survive via its serial fallback.
    """
    if os.getpid() != parent_pid:
        os._exit(13)
    return {"value": x}


def fail_in_worker_only(*, parent_pid: int, x: int) -> dict:
    """Raise (cleanly) in a pool worker; succeed when retried in-process."""
    if os.getpid() != parent_pid:
        raise RuntimeError("transient worker failure")
    return {"value": x}


def rewrite_without_obligation():
    """A rewrite factory whose rewrite carries no obligation instances."""
    from repro.core.exprhigh import ExprHigh
    from repro.rewriting.rewrite import Rewrite

    return Rewrite(name="bare", lhs=ExprHigh(), rhs=lambda match: ExprHigh())


def refuted_but_marked_verified():
    """``join_split_elim``, whose obligation is refuted, flagged verified."""
    from dataclasses import replace

    from repro.rewriting.rules import reduction

    return replace(reduction.join_split_elim(), verified=True)


def rewrite_with_empty_obligation():
    """A verified rewrite whose obligation yields no instances."""
    from repro.core.exprhigh import ExprHigh
    from repro.rewriting.rewrite import Rewrite

    return Rewrite(
        name="empty",
        lhs=ExprHigh(),
        rhs=lambda match: ExprHigh(),
        obligation=lambda: iter(()),
        verified=True,
    )
