"""Shuffle rewrites: moving Pures past Splits and Joins, and the
Split/Join algebra (figs. 3c and 5e).

After operator-to-Pure conversion the body is a network of Pures, Splits
and Joins.  These rewrites push Pures together (so :func:`pure_compose`
can fuse them) and reassociate the remaining Split/Join network.  The
purify step does not replay these rules in an order an oracle picks: the
e-graph oracle (:mod:`repro.rewriting.egraph`) only simplifies the composed
body term, and only its rule count is kept (see :mod:`repro.rewriting.purify`).
"""

from __future__ import annotations

from ...components import join, pure, split
from .. import algebra
from ..rewrite import Match, Rewrite, Var
from .common import Instance, graph_of, is_tagged, obligation


# -- Pures past Joins ---------------------------------------------------------


def _join_pure_left_lhs():
    return graph_of(
        {"p": pure(Var("F")), "jn": join()},
        [("p.out0", "jn.in0")],
        {0: "p.in0", 1: "jn.in1"},
        {0: "jn.out0"},
    )


def _join_pure_left_rhs(match: Match):
    fn = algebra.first(str(match.params["F"]))
    tagged = is_tagged(match, "p")
    return graph_of(
        {"jn": join(tagged=tagged), "p": pure(fn, tagged=tagged)},
        [("jn.out0", "p.in0")],
        {0: "jn.in0", 1: "jn.in1"},
        {0: "p.out0"},
    )


def join_pure_left() -> Rewrite:
    """``Join(F a, b)`` becomes ``Pure(first F)(Join(a, b))``."""
    lhs = _join_pure_left_lhs()
    return Rewrite(
        name="join-pure-left",
        lhs=lhs,
        rhs=_join_pure_left_rhs,
        verified=True,
        obligation=obligation(
            lhs, _join_pure_left_rhs, Instance({0: (1,), 1: ("y",)}, {"F": "incr"})
        ),
        description="Pure on a Join's left input moves after the Join (fig. 3c)",
    )


def _join_pure_right_lhs():
    return graph_of(
        {"p": pure(Var("F")), "jn": join()},
        [("p.out0", "jn.in1")],
        {0: "jn.in0", 1: "p.in0"},
        {0: "jn.out0"},
    )


def _join_pure_right_rhs(match: Match):
    fn = algebra.second(str(match.params["F"]))
    tagged = is_tagged(match, "p")
    return graph_of(
        {"jn": join(tagged=tagged), "p": pure(fn, tagged=tagged)},
        [("jn.out0", "p.in0")],
        {0: "jn.in0", 1: "jn.in1"},
        {0: "p.out0"},
    )


def join_pure_right() -> Rewrite:
    """``Join(a, F b)`` becomes ``Pure(second F)(Join(a, b))``."""
    lhs = _join_pure_right_lhs()
    return Rewrite(
        name="join-pure-right",
        lhs=lhs,
        rhs=_join_pure_right_rhs,
        verified=True,
        obligation=obligation(
            lhs, _join_pure_right_rhs, Instance({0: ("x",), 1: (1,)}, {"F": "incr"})
        ),
        description="Pure on a Join's right input moves after the Join (fig. 3c)",
    )


# -- Pures past Splits --------------------------------------------------------


def _split_pure_left_lhs():
    return graph_of(
        {"sp": split(), "p": pure(Var("F"))},
        [("sp.out0", "p.in0")],
        {0: "sp.in0"},
        {0: "p.out0", 1: "sp.out1"},
    )


def _split_pure_left_rhs(match: Match):
    fn = algebra.first(str(match.params["F"]))
    tagged = is_tagged(match, "p")
    return graph_of(
        {"p": pure(fn, tagged=tagged), "sp": split(tagged=tagged)},
        [("p.out0", "sp.in0")],
        {0: "p.in0"},
        {0: "sp.out0", 1: "sp.out1"},
    )


def split_pure_left() -> Rewrite:
    """A Pure on a Split's left output moves before the Split."""
    lhs = _split_pure_left_lhs()
    return Rewrite(
        name="split-pure-left",
        lhs=lhs,
        rhs=_split_pure_left_rhs,
        verified=True,
        obligation=obligation(
            lhs, _split_pure_left_rhs, Instance({0: ((1, "y"), (2, "z"))}, {"F": "incr"})
        ),
        description="Pure on a Split's left output moves before the Split (fig. 3c)",
    )


def _split_pure_right_lhs():
    return graph_of(
        {"sp": split(), "p": pure(Var("F"))},
        [("sp.out1", "p.in0")],
        {0: "sp.in0"},
        {0: "sp.out0", 1: "p.out0"},
    )


def _split_pure_right_rhs(match: Match):
    fn = algebra.second(str(match.params["F"]))
    tagged = is_tagged(match, "p")
    return graph_of(
        {"p": pure(fn, tagged=tagged), "sp": split(tagged=tagged)},
        [("p.out0", "sp.in0")],
        {0: "p.in0"},
        {0: "sp.out0", 1: "sp.out1"},
    )


def split_pure_right() -> Rewrite:
    """A Pure on a Split's right output moves before the Split."""
    lhs = _split_pure_right_lhs()
    return Rewrite(
        name="split-pure-right",
        lhs=lhs,
        rhs=_split_pure_right_rhs,
        verified=True,
        obligation=obligation(
            lhs, _split_pure_right_rhs, Instance({0: (("y", 1), ("z", 2))}, {"F": "incr"})
        ),
        description="Pure on a Split's right output moves before the Split (fig. 3c)",
    )


# -- Split/Join algebra -------------------------------------------------------


def _join_assoc_lhs():
    return graph_of(
        {"inner": join(), "outer": join()},
        [("inner.out0", "outer.in1")],
        {0: "outer.in0", 1: "inner.in0", 2: "inner.in1"},
        {0: "outer.out0"},
    )


def _join_assoc_rhs(match: Match):
    return graph_of(
        {"ja": join(), "jb": join(), "p": pure("assocr", tagged=False)},
        [("ja.out0", "jb.in0"), ("jb.out0", "p.in0")],
        {0: "ja.in0", 1: "ja.in1", 2: "jb.in1"},
        {0: "p.out0"},
    )


def join_assoc() -> Rewrite:
    """``Join(a, Join(b, c))`` re-associates to ``assocr(Join(Join(a,b),c))``."""
    lhs = _join_assoc_lhs()
    return Rewrite(
        name="join-assoc",
        lhs=lhs,
        rhs=_join_assoc_rhs,
        verified=True,
        obligation=obligation(lhs, _join_assoc_rhs, Instance({0: ("a",), 1: ("b",), 2: ("c",)})),
        description="Join re-association (split/join algebra)",
    )


def _join_swap_lhs():
    return graph_of(
        {"jn": join()},
        [],
        {0: "jn.in0", 1: "jn.in1"},
        {0: "jn.out0"},
    )


def _join_swap_rhs(match: Match):
    return graph_of(
        {"jn": join(), "p": pure("swap", tagged=False)},
        [("jn.out0", "p.in0")],
        {0: "jn.in1", 1: "jn.in0"},
        {0: "p.out0"},
    )


def join_swap() -> Rewrite:
    """``Join(a, b)`` equals ``swap(Join(b, a))`` (commutativity)."""
    lhs = _join_swap_lhs()
    return Rewrite(
        name="join-swap",
        lhs=lhs,
        rhs=_join_swap_rhs,
        verified=True,
        obligation=obligation(lhs, _join_swap_rhs, Instance({0: ("a",), 1: ("b",)})),
        description="Join commutativity via a swap Pure (split/join algebra)",
    )
