"""The rewrite library (figures 3 and 5 of the paper).

:func:`all_rewrites` enumerates every named rewrite with a fresh instance —
the paper's "20 rewrites" (19 minor plus the verified out-of-order core),
here 21 named rules of which 19 carry discharged obligations and 2 are
documented-unverified, plus the two computed rewrites (purify-body /
expand-body) the pipeline builds per loop.
"""

from __future__ import annotations

from ..rewrite import Rewrite
from . import combine, extra, loop_rewrite, pure_gen, reduction, shuffle


def all_rewrites(tags: int = 4) -> list[Rewrite]:
    """One fresh instance of every named rewrite in the library."""
    return [
        combine.mux_combine(),
        combine.branch_combine(),
        combine.merge_combine(),
        reduction.split_join_elim(),
        reduction.join_split_elim(),
        reduction.fork_sink_elim(),
        reduction.pure_id_elim(),
        pure_gen.op1_to_pure(),
        pure_gen.op2_to_pure(),
        pure_gen.fork_lift_pure(),
        pure_gen.fork_to_pure(),
        pure_gen.pure_compose(),
        shuffle.join_pure_left(),
        shuffle.join_pure_right(),
        shuffle.split_pure_left(),
        shuffle.split_pure_right(),
        shuffle.join_assoc(),
        shuffle.join_swap(),
        extra.split_swap(),
        extra.fork_assoc(),
        extra.merge_swap(),
        extra.buffer_elim(),
        loop_rewrite.ooo_loop(tags=tags),
    ]


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


__all__ = [
    "VERIFY_FACTORY_SPECS",
    "build_rewrite",
    "all_rewrites",
    "combine",
    "extra",
    "loop_rewrite",
    "pure_gen",
    "reduction",
    "shuffle",
]
