"""The main out-of-order loop rewrite (fig. 3d, sections 3.3 and 5).

The left-hand side is the *normalized sequential loop*: a single Mux and a
single Branch guarding a Pure body, the Boolean condition split off the
body's output, forked to the Branch and (through an Init holding the initial
``false``) back to the Mux.

The right-hand side replaces the Mux by an unconditional Merge — which is
what lets independent loop instances overlap and overtake each other — and
wraps the loop in a Tagger/Untagger so results are released in program
order.  The Init and condition Fork disappear: a Merge needs no condition.

The refinement obligation is the bounded analogue of theorem 5.3
(𝓘 ⊑ 𝓢): checked here on concrete loop bodies, and dissected invariant by
invariant in :mod:`repro.refinement.loop_proof`.
"""

from __future__ import annotations

from typing import Callable

from ...components import branch, fork, init, merge, mux, pure, split, tagger
from ...core.exprhigh import ExprHigh
from ..rewrite import Match, Rewrite, Var
from .common import Instance, graph_of, obligation


def sequential_loop_lhs() -> ExprHigh:
    """The normalized sequential loop pattern (lhs of fig. 3d)."""
    return graph_of(
        nodes={
            "mx": mux(),
            "body": pure(Var("F")),
            "sp": split(),
            "fk": fork(2),
            "ini": init(value=False),
            "br": branch(),
        },
        connections=[
            ("mx.out0", "body.in0"),
            ("body.out0", "sp.in0"),
            ("sp.out0", "br.in0"),
            ("sp.out1", "fk.in0"),
            ("fk.out0", "br.cond"),
            ("fk.out1", "ini.in0"),
            ("ini.out0", "mx.cond"),
            ("br.out0", "mx.in0"),
        ],
        inputs={0: "mx.in1"},
        outputs={0: "br.out1"},
    )


def ooo_loop_rhs(fn: str, tags: int) -> ExprHigh:
    """The tagged out-of-order loop (rhs of fig. 3d) for a concrete body."""
    return graph_of(
        nodes={
            "tg": tagger(tags=tags),
            "mg": merge(),
            "body": pure(fn, tagged=True),
            "sp": split(tagged=True),
            "br": branch(tagged=True),
        },
        connections=[
            ("tg.out0", "mg.in1"),
            ("mg.out0", "body.in0"),
            ("body.out0", "sp.in0"),
            ("sp.out0", "br.in0"),
            ("sp.out1", "br.cond"),
            ("br.out0", "mg.in0"),
            ("br.out1", "tg.in1"),
        ],
        inputs={0: "tg.in0"},
        outputs={0: "tg.out1"},
    )


def _dec_step(n: int) -> tuple[int, bool]:
    """A tiny loop body: count down, continue while positive."""
    return n - 1, n - 1 > 0


def _rhs(tags: int) -> Callable[[Match], ExprHigh]:
    def rhs(match: Match) -> ExprHigh:
        return ooo_loop_rhs(str(match.params["F"]), tags)

    return rhs


def ooo_loop(tags: int = 4) -> Rewrite:
    """The verified out-of-order loop rewrite, with *tags* in-flight slots.

    *tags* is the rewrite's parameter supplied by the oracle (the paper uses
    the per-benchmark counts of Elakhras et al.).  The obligation instance
    is checked with a small tag count and a terminating countdown body — the
    bounded stand-in for the parametric Lean proof of section 5.
    """
    lhs = sequential_loop_lhs()
    return Rewrite(
        name="ooo-loop",
        lhs=lhs,
        rhs=_rhs(tags),
        verified=True,
        # The instance is the 2-tag builder's output whatever *tags* the
        # rewrite is applied with, which keeps the bounded check small.
        obligation=obligation(
            lhs,
            _rhs(min(tags, 2)),
            Instance({0: (1, 2)}, {"F": "dec_step"}, {"dec_step": (_dec_step, 1)}),
        ),
        description="Mux-guarded sequential loop becomes tagged Merge loop (fig. 3d)",
    )
