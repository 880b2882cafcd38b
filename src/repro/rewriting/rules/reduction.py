"""Phase-2 cleanup rewrites: eliminating redundant nodes (fig. 3b).

These rewrites remove structure left over by the phase-1 combinations:
Split feeding Join collapses to an identity Pure, Join feeding Split
likewise, a Fork with one sunk output disappears, and identity Pures
compose away.  Wire-throughs are expressed as ``Pure{fn=id}`` because a
rewrite replacement must be a (closed) graph; a later pass or the buffer
placer treats identity Pures as plain wires.
"""

from __future__ import annotations

from ...components import fork, join, pure, sink, split
from ..rewrite import Match, Rewrite, Var
from .common import Instance, graph_of, is_tagged, obligation


def _split_join_lhs():
    return graph_of(
        nodes={"sp": split(), "jn": join()},
        connections=[("sp.out0", "jn.in0"), ("sp.out1", "jn.in1")],
        inputs={0: "sp.in0"},
        outputs={0: "jn.out0"},
    )


def _split_join_rhs(match: Match):
    return graph_of(
        nodes={"wire": pure("id")},
        connections=[],
        inputs={0: "wire.in0"},
        outputs={0: "wire.out0"},
    )


def split_join_elim() -> Rewrite:
    """``Split ; Join`` (straight wires) is the identity on pairs."""
    lhs = _split_join_lhs()
    return Rewrite(
        name="split-join-elim",
        lhs=lhs,
        rhs=_split_join_rhs,
        verified=True,
        obligation=obligation(lhs, _split_join_rhs, Instance({0: (("x", "y"),)})),
        description="Split immediately re-joined collapses to a wire (fig. 3b)",
    )


def _join_split_lhs():
    return graph_of(
        nodes={"jn": join(), "sp": split()},
        connections=[("jn.out0", "sp.in0")],
        inputs={0: "jn.in0", 1: "jn.in1"},
        outputs={0: "sp.out0", 1: "sp.out1"},
    )


def _join_split_rhs(match: Match):
    return graph_of(
        nodes={"wa": pure("id"), "wb": pure("id")},
        connections=[],
        inputs={0: "wa.in0", 1: "wb.in0"},
        outputs={0: "wa.out0", 1: "wb.out0"},
    )


def join_split_elim() -> Rewrite:
    """``Join ; Split`` is two independent wires.

    Unverified: the obligation genuinely fails compositionally — the lhs
    synchronises its two streams (a token only passes once its partner
    arrived), whereas the rhs lets either stream through alone.  The rhs has
    *more* behaviours, so ``rhs ⊑ lhs`` does not hold even though the lhs
    refines the rhs.  The paper's pipeline applies it where the surrounding
    loop re-synchronises the streams anyway.
    """
    lhs = _join_split_lhs()
    return Rewrite(
        name="join-split-elim",
        lhs=lhs,
        rhs=_join_split_rhs,
        verified=False,
        obligation=obligation(lhs, _join_split_rhs, Instance({0: ("x",), 1: ("y",)})),
        description="Join immediately re-split collapses to two wires (fig. 3b, unverified)",
    )


def _fork_sink_lhs():
    return graph_of(
        nodes={"fk": fork(2), "sk": sink()},
        connections=[("fk.out1", "sk.in0")],
        inputs={0: "fk.in0"},
        outputs={0: "fk.out0"},
    )


def _fork_sink_rhs(match: Match):
    return graph_of(
        nodes={"wire": pure("id")},
        connections=[],
        inputs={0: "wire.in0"},
        outputs={0: "wire.out0"},
    )


def fork_sink_elim() -> Rewrite:
    """A Fork whose second output is discarded is a wire."""
    lhs = _fork_sink_lhs()
    return Rewrite(
        name="fork-sink-elim",
        lhs=lhs,
        rhs=_fork_sink_rhs,
        verified=True,
        obligation=obligation(lhs, _fork_sink_rhs, Instance({0: ("x", "y")})),
        description="Fork with a sunk output collapses to a wire (fig. 3b)",
    )


def _pure_id_pure_lhs():
    return graph_of(
        nodes={"w": pure("id"), "p": pure(Var("F"))},
        connections=[("w.out0", "p.in0")],
        inputs={0: "w.in0"},
        outputs={0: "p.out0"},
    )


def _pure_id_pure_rhs(match: Match):
    return graph_of(
        nodes={"p": pure(match.params["F"], tagged=is_tagged(match, "p"))},
        connections=[],
        inputs={0: "p.in0"},
        outputs={0: "p.out0"},
    )


def pure_id_elim() -> Rewrite:
    """An identity Pure in front of another Pure is absorbed."""
    lhs = _pure_id_pure_lhs()
    return Rewrite(
        name="pure-id-elim",
        lhs=lhs,
        rhs=_pure_id_pure_rhs,
        verified=True,
        obligation=obligation(lhs, _pure_id_pure_rhs, Instance({0: (1, 2)}, {"F": "incr"})),
        description="Identity wire absorbed into the following Pure",
    )
