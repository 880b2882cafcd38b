"""The rewrite library (figures 3 and 5 of the paper).

:data:`VERIFY_FACTORY_SPECS` names every rewrite in the library — the
paper's "20 rewrites" (19 minor plus the verified out-of-order core), here
19 named rules (18 minor plus ``ooo-loop``) of which 17 carry discharged
obligations and 2 are documented-unverified — plus the two computed
rewrites (purify-body / expand-body) the pipeline builds per loop.
"""

from __future__ import annotations

from typing import Iterable

from ...errors import RewriteError
from ..rewrite import Rewrite
from . import combine, loop_rewrite, pure_gen, reduction, shuffle


#: The obligations discharged by ``repro.cli refine``/``sat-check``
#: and :meth:`repro.api.Session.check_obligations`/``sat_check``:
#: (module, factory, kwargs) triples.
#: Factory references (rather than Rewrite objects, which close over
#: builder functions) keep each discharge picklable as an executor unit.
VERIFY_FACTORY_SPECS: tuple[tuple[str, str, dict], ...] = (
    ("repro.rewriting.rules.combine", "mux_combine", {}),
    ("repro.rewriting.rules.combine", "merge_combine", {}),
    ("repro.rewriting.rules.combine", "branch_combine", {}),
    ("repro.rewriting.rules.reduction", "split_join_elim", {}),
    ("repro.rewriting.rules.reduction", "join_split_elim", {}),
    ("repro.rewriting.rules.reduction", "fork_sink_elim", {}),
    ("repro.rewriting.rules.reduction", "pure_id_elim", {}),
    ("repro.rewriting.rules.pure_gen", "op1_to_pure", {}),
    ("repro.rewriting.rules.pure_gen", "op2_to_pure", {}),
    ("repro.rewriting.rules.pure_gen", "fork_lift_pure", {}),
    ("repro.rewriting.rules.pure_gen", "fork_to_pure", {}),
    ("repro.rewriting.rules.pure_gen", "pure_compose", {}),
    ("repro.rewriting.rules.shuffle", "join_pure_left", {}),
    ("repro.rewriting.rules.shuffle", "join_pure_right", {}),
    ("repro.rewriting.rules.shuffle", "split_pure_left", {}),
    ("repro.rewriting.rules.shuffle", "split_pure_right", {}),
    ("repro.rewriting.rules.shuffle", "join_assoc", {}),
    ("repro.rewriting.rules.shuffle", "join_swap", {}),
    ("repro.rewriting.rules.loop_rewrite", "ooo_loop", {"tags": 2}),
)


def build_rewrite(module: str, factory: str, kwargs: dict | None = None) -> Rewrite:
    """Instantiate a rewrite from a ``VERIFY_FACTORY_SPECS``-style triple."""
    import importlib

    return getattr(importlib.import_module(module), factory)(**(kwargs or {}))


def select_specs(names: Iterable[str] | None) -> list[tuple[str, str, dict]]:
    """The ``VERIFY_FACTORY_SPECS`` entries whose factory is named in
    *names*, in registry order; all of them when *names* is None.

    Raises :class:`~repro.errors.RewriteError` naming the unknown names
    and every known one when some name matches no factory.
    """
    if names is None:
        return list(VERIFY_FACTORY_SPECS)
    wanted = set(names)
    known = sorted(factory for _, factory, _ in VERIFY_FACTORY_SPECS)
    unknown = sorted(wanted.difference(known))
    if unknown:
        raise RewriteError(f"unknown rule(s) {unknown}; known: {known}")
    return [spec for spec in VERIFY_FACTORY_SPECS if spec[1] in wanted]


__all__ = [
    "VERIFY_FACTORY_SPECS",
    "build_rewrite",
    "combine",
    "loop_rewrite",
    "pure_gen",
    "reduction",
    "select_specs",
    "shuffle",
]
