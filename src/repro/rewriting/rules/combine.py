"""Phase-1 normalization rewrites: combining steering components (fig. 3a).

``mux-combine`` merges two Muxes that share a forked condition into one Mux
over joined data with a Split after it; ``branch-combine`` does the dual for
Branches.  These are the rewrites responsible for the extra synchronisation
the paper discusses in section 6.2 (Graphiti circuits synchronise the data
paths of combined Muxes/Branches, costing a little performance relative to
DF-OoO's uncombined steering).
"""

from __future__ import annotations

from ...components import branch, fork, join, merge, mux, split
from ..rewrite import Match, Rewrite
from .common import Instance, graph_of, obligation


def _mux_combine_lhs():
    return graph_of(
        nodes={"fk": fork(2), "ma": mux(), "mb": mux()},
        connections=[("fk.out0", "ma.cond"), ("fk.out1", "mb.cond")],
        inputs={0: "fk.in0", 1: "ma.in0", 2: "ma.in1", 3: "mb.in0", 4: "mb.in1"},
        outputs={0: "ma.out0", 1: "mb.out0"},
    )


def _mux_combine_rhs(match: Match):
    return graph_of(
        nodes={"jt": join(), "jf": join(), "mx": mux(), "sp": split()},
        connections=[("jt.out0", "mx.in0"), ("jf.out0", "mx.in1"), ("mx.out0", "sp.in0")],
        inputs={0: "mx.cond", 1: "jt.in0", 2: "jf.in0", 3: "jt.in1", 4: "jf.in1"},
        outputs={0: "sp.out0", 1: "sp.out1"},
    )


def mux_combine() -> Rewrite:
    """Two Muxes with a common (forked) condition become one Mux."""
    lhs = _mux_combine_lhs()
    return Rewrite(
        name="mux-combine",
        lhs=lhs,
        rhs=_mux_combine_rhs,
        verified=True,
        obligation=obligation(
            lhs,
            _mux_combine_rhs,
            Instance({0: (True, False), 1: ("a0",), 2: ("a1",), 3: ("b0",), 4: ("b1",)}),
        ),
        description="Combine two Muxes sharing a forked condition (fig. 3a)",
    )


def _branch_combine_lhs():
    return graph_of(
        nodes={"fk": fork(2), "ba": branch(), "bb": branch()},
        connections=[("fk.out0", "ba.cond"), ("fk.out1", "bb.cond")],
        inputs={0: "fk.in0", 1: "ba.in0", 2: "bb.in0"},
        outputs={0: "ba.out0", 1: "ba.out1", 2: "bb.out0", 3: "bb.out1"},
    )


def _branch_combine_rhs(match: Match):
    return graph_of(
        nodes={"jn": join(), "br": branch(), "st": split(), "sf": split()},
        connections=[("jn.out0", "br.in0"), ("br.out0", "st.in0"), ("br.out1", "sf.in0")],
        inputs={0: "br.cond", 1: "jn.in0", 2: "jn.in1"},
        outputs={0: "st.out0", 1: "sf.out0", 2: "st.out1", 3: "sf.out1"},
    )


def branch_combine() -> Rewrite:
    """Two Branches with a common (forked) condition become one Branch.

    This rewrite is **unverified**, mirroring the paper's limitation note
    ("we have not provided a proof of refinement for most of the minor
    rewrites, like those shown in figures 3a to 3c").  And indeed the naive
    compositional obligation genuinely fails: the Splits buffering the
    combined Branch's results let tokens reach the true-side interface
    outputs before older false-side tokens have drained, an output
    reordering across ports the uncombined circuit cannot perform.  The
    bounded checker finds that counterexample; see
    ``tests/refinement/test_obligation_verdicts.py``.  The rewrite is nonetheless sound
    in the loop context where the pipeline applies it, because there the
    true-side outputs loop back into the single Mux that consumes them in
    condition order.
    """
    lhs = _branch_combine_lhs()
    return Rewrite(
        name="branch-combine",
        lhs=lhs,
        rhs=_branch_combine_rhs,
        verified=False,
        obligation=obligation(
            lhs, _branch_combine_rhs, Instance({0: (True, False), 1: ("a",), 2: ("b",)})
        ),
        description="Combine two Branches sharing a forked condition (fig. 3a, unverified)",
    )


def _merge_combine_lhs():
    return graph_of(
        nodes={"ma": merge(), "mb": merge()},
        connections=[],
        inputs={0: "ma.in0", 1: "ma.in1", 2: "mb.in0", 3: "mb.in1"},
        outputs={0: "ma.out0", 1: "mb.out0"},
    )


def _merge_combine_rhs(match: Match):
    return graph_of(
        nodes={"jt": join(), "jf": join(), "mg": merge(), "sp": split()},
        connections=[("jt.out0", "mg.in0"), ("jf.out0", "mg.in1"), ("mg.out0", "sp.in0")],
        inputs={0: "jt.in0", 1: "jf.in0", 2: "jt.in1", 3: "jf.in1"},
        outputs={0: "sp.out0", 1: "sp.out1"},
    )


def merge_combine() -> Rewrite:
    """Two side-by-side Merges become one Merge over joined pairs."""
    lhs = _merge_combine_lhs()
    return Rewrite(
        name="merge-combine",
        lhs=lhs,
        rhs=_merge_combine_rhs,
        verified=True,
        obligation=obligation(
            lhs, _merge_combine_rhs, Instance({0: ("a0",), 1: ("a1",), 2: ("b0",), 3: ("b1",)})
        ),
        description="Combine two parallel Merges into one over pairs",
    )
