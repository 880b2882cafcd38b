"""Phase-3 rewrites: turning a loop body into Pure components (fig. 5).

The sequence of figure 5: replace each operator by a Pure implementation
(adding Joins for extra inputs), lift Forks to the top of the body
(duplicating what sits above them), replace Forks by ``Pure{dup}; Split``,
and compose adjacent Pures.  Together with the shuffle rules these reduce an
arbitrary side-effect-free body to a single Pure — which *is* the proof that
the body consumes one token and produces one token, in order.
"""

from __future__ import annotations

from ...components import fork, join, pure, split
from ...core.exprhigh import NodeSpec
from .. import algebra
from ..rewrite import Match, Rewrite, Var
from .common import Instance, graph_of, is_tagged, obligation


def _op1_lhs():
    spec = NodeSpec.make("Operator", ["in0"], ["out0"], {"op": Var("F")})
    return graph_of({"op": spec}, [], {0: "op.in0"}, {0: "op.out0"})


def _op1_rhs(match: Match):
    fn = str(match.params["F"])
    return graph_of(
        {"p": pure(fn, tagged=is_tagged(match, "op"))}, [], {0: "p.in0"}, {0: "p.out0"}
    )


def op1_to_pure() -> Rewrite:
    """A unary Operator is already a Pure."""
    lhs = _op1_lhs()
    return Rewrite(
        name="op1-to-pure",
        lhs=lhs,
        rhs=_op1_rhs,
        verified=True,
        obligation=obligation(lhs, _op1_rhs, Instance({0: (0, 1)}, {"F": "ne0"})),
        description="Unary operator becomes a Pure component (fig. 5b)",
    )


def _op2_lhs():
    spec = NodeSpec.make("Operator", ["in0", "in1"], ["out0"], {"op": Var("F")})
    return graph_of({"op": spec}, [], {0: "op.in0", 1: "op.in1"}, {0: "op.out0"})


def _op2_rhs(match: Match):
    fn = algebra.tup(str(match.params["F"]))
    tagged = is_tagged(match, "op")
    return graph_of(
        {"jn": join(tagged=tagged), "p": pure(fn, tagged=tagged)},
        [("jn.out0", "p.in0")],
        {0: "jn.in0", 1: "jn.in1"},
        {0: "p.out0"},
    )


def op2_to_pure() -> Rewrite:
    """A binary Operator becomes Join followed by a tupled Pure."""
    lhs = _op2_lhs()
    return Rewrite(
        name="op2-to-pure",
        lhs=lhs,
        rhs=_op2_rhs,
        verified=True,
        obligation=obligation(lhs, _op2_rhs, Instance({0: (5, 7), 1: (3,)}, {"F": "mod"})),
        description="Binary operator becomes Join; Pure(tup f) (fig. 5b)",
    )


def _fork_lift_lhs():
    return graph_of(
        {"p": pure(Var("F")), "fk": fork(2)},
        [("p.out0", "fk.in0")],
        {0: "p.in0"},
        {0: "fk.out0", 1: "fk.out1"},
    )


def _fork_lift_rhs(match: Match):
    fn = str(match.params["F"])
    tagged = is_tagged(match, "p")
    return graph_of(
        {"fk": fork(2), "pa": pure(fn, tagged=tagged), "pb": pure(fn, tagged=tagged)},
        [("fk.out0", "pa.in0"), ("fk.out1", "pb.in0")],
        {0: "fk.in0"},
        {0: "pa.out0", 1: "pb.out0"},
    )


def fork_lift_pure() -> Rewrite:
    """Move a Fork above a Pure, duplicating the Pure (fig. 5c)."""
    lhs = _fork_lift_lhs()
    return Rewrite(
        name="fork-lift-pure",
        lhs=lhs,
        rhs=_fork_lift_rhs,
        verified=True,
        obligation=obligation(lhs, _fork_lift_rhs, Instance({0: (1, 2)}, {"F": "incr"})),
        description="Fork moved above a Pure, duplicating it (fig. 5c)",
    )


def _fork_to_pure_lhs():
    return graph_of({"fk": fork(2)}, [], {0: "fk.in0"}, {0: "fk.out0", 1: "fk.out1"})


def _fork_to_pure_rhs(match: Match):
    tagged = is_tagged(match, "fk")
    return graph_of(
        {"p": pure("dup", tagged=tagged), "sp": split(tagged=tagged)},
        [("p.out0", "sp.in0")],
        {0: "p.in0"},
        {0: "sp.out0", 1: "sp.out1"},
    )


def fork_to_pure() -> Rewrite:
    """A Fork becomes ``Pure{dup}`` followed by a Split (fig. 5d)."""
    lhs = _fork_to_pure_lhs()
    return Rewrite(
        name="fork-to-pure",
        lhs=lhs,
        rhs=_fork_to_pure_rhs,
        verified=True,
        obligation=obligation(lhs, _fork_to_pure_rhs, Instance({0: ("x", "y")})),
        description="Fork becomes Pure(dup); Split (fig. 5d)",
    )


def _compose_lhs():
    return graph_of(
        {"p": pure(Var("F")), "q": pure(Var("G"))},
        [("p.out0", "q.in0")],
        {0: "p.in0"},
        {0: "q.out0"},
    )


def _compose_rhs(match: Match):
    fn = algebra.comp(str(match.params["F"]), str(match.params["G"]))
    tagged = is_tagged(match, "p") or is_tagged(match, "q")
    return graph_of({"pq": pure(fn, tagged=tagged)}, [], {0: "pq.in0"}, {0: "pq.out0"})


def pure_compose() -> Rewrite:
    """Two Pures in sequence compose into one."""
    lhs = _compose_lhs()
    return Rewrite(
        name="pure-compose",
        lhs=lhs,
        rhs=_compose_rhs,
        verified=True,
        obligation=obligation(
            lhs, _compose_rhs, Instance({0: (-1, 0)}, {"F": "incr", "G": "ne0"})
        ),
        description="Sequential Pures fuse into one Pure (fig. 5e)",
    )
