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

from ...components import join, split
from ...core.exprhigh import NodeSpec
from .. import algebra
from ..rewrite import Match, Rewrite, Var
from .common import graph_of, io_values, obligation_env


def _pure_spec(fn: str, tagged: bool) -> NodeSpec:
    return NodeSpec.make("Pure", ["in0"], ["out0"], {"fn": fn, "tagged": tagged})


def _pure_pattern(var: str) -> NodeSpec:
    return NodeSpec.make("Pure", ["in0"], ["out0"], {"fn": Var(var)})


def _tagged(match: Match, node: str) -> bool:
    return bool(match.host_specs[match.nodes[node]].param("tagged", False))


# -- Pures past Joins ---------------------------------------------------------


def _join_pure_left_lhs():
    return graph_of(
        {"p": _pure_pattern("F"), "jn": join()},
        [("p.out0", "jn.in0")],
        {0: "p.in0", 1: "jn.in1"},
        {0: "jn.out0"},
    )


def _join_pure_left_rhs(match: Match):
    fn = algebra.first(str(match.params["F"]))
    tagged = _tagged(match, "p")
    return graph_of(
        {"jn": join(tagged=tagged), "p": _pure_spec(fn, tagged)},
        [("jn.out0", "p.in0")],
        {0: "jn.in0", 1: "jn.in1"},
        {0: "p.out0"},
    )


def _join_pure_left_obligation():
    env = obligation_env(capacity=1)
    algebra.ensure(env, "first(incr)")
    lhs = graph_of(
        {"p": _pure_spec("incr", False), "jn": join()},
        [("p.out0", "jn.in0")],
        {0: "p.in0", 1: "jn.in1"},
        {0: "jn.out0"},
    )
    rhs = graph_of(
        {"jn": join(tagged=False), "p": _pure_spec("first(incr)", False)},
        [("jn.out0", "p.in0")],
        {0: "jn.in0", 1: "jn.in1"},
        {0: "p.out0"},
    )
    yield lhs, rhs, env, io_values({0: (1,), 1: ("y",)})


def join_pure_left() -> Rewrite:
    """``Join(F a, b)`` becomes ``Pure(first F)(Join(a, b))``."""
    return Rewrite(
        name="join-pure-left",
        lhs=_join_pure_left_lhs(),
        rhs=_join_pure_left_rhs,
        verified=True,
        obligation=_join_pure_left_obligation,
        description="Pure on a Join's left input moves after the Join (fig. 3c)",
    )


def _join_pure_right_lhs():
    return graph_of(
        {"p": _pure_pattern("F"), "jn": join()},
        [("p.out0", "jn.in1")],
        {0: "jn.in0", 1: "p.in0"},
        {0: "jn.out0"},
    )


def _join_pure_right_rhs(match: Match):
    fn = algebra.second(str(match.params["F"]))
    tagged = _tagged(match, "p")
    return graph_of(
        {"jn": join(tagged=tagged), "p": _pure_spec(fn, tagged)},
        [("jn.out0", "p.in0")],
        {0: "jn.in0", 1: "jn.in1"},
        {0: "p.out0"},
    )


def _join_pure_right_obligation():
    env = obligation_env(capacity=1)
    algebra.ensure(env, "second(incr)")
    lhs = graph_of(
        {"p": _pure_spec("incr", False), "jn": join()},
        [("p.out0", "jn.in1")],
        {0: "jn.in0", 1: "p.in0"},
        {0: "jn.out0"},
    )
    rhs = graph_of(
        {"jn": join(tagged=False), "p": _pure_spec("second(incr)", False)},
        [("jn.out0", "p.in0")],
        {0: "jn.in0", 1: "jn.in1"},
        {0: "p.out0"},
    )
    yield lhs, rhs, env, io_values({0: ("x",), 1: (1,)})


def join_pure_right() -> Rewrite:
    """``Join(a, F b)`` becomes ``Pure(second F)(Join(a, b))``."""
    return Rewrite(
        name="join-pure-right",
        lhs=_join_pure_right_lhs(),
        rhs=_join_pure_right_rhs,
        verified=True,
        obligation=_join_pure_right_obligation,
        description="Pure on a Join's right input moves after the Join (fig. 3c)",
    )


# -- Pures past Splits --------------------------------------------------------


def _split_pure_left_lhs():
    return graph_of(
        {"sp": split(), "p": _pure_pattern("F")},
        [("sp.out0", "p.in0")],
        {0: "sp.in0"},
        {0: "p.out0", 1: "sp.out1"},
    )


def _split_pure_left_rhs(match: Match):
    fn = algebra.first(str(match.params["F"]))
    tagged = _tagged(match, "p")
    return graph_of(
        {"p": _pure_spec(fn, tagged), "sp": split(tagged=tagged)},
        [("p.out0", "sp.in0")],
        {0: "p.in0"},
        {0: "sp.out0", 1: "sp.out1"},
    )


def _split_pure_left_obligation():
    env = obligation_env(capacity=1)
    algebra.ensure(env, "first(incr)")
    lhs = graph_of(
        {"sp": split(), "p": _pure_spec("incr", False)},
        [("sp.out0", "p.in0")],
        {0: "sp.in0"},
        {0: "p.out0", 1: "sp.out1"},
    )
    rhs = graph_of(
        {"p": _pure_spec("first(incr)", False), "sp": split(tagged=False)},
        [("p.out0", "sp.in0")],
        {0: "p.in0"},
        {0: "sp.out0", 1: "sp.out1"},
    )
    yield lhs, rhs, env, io_values({0: ((1, "y"), (2, "z"))})


def split_pure_left() -> Rewrite:
    """A Pure on a Split's left output moves before the Split."""
    return Rewrite(
        name="split-pure-left",
        lhs=_split_pure_left_lhs(),
        rhs=_split_pure_left_rhs,
        verified=True,
        obligation=_split_pure_left_obligation,
        description="Pure on a Split's left output moves before the Split (fig. 3c)",
    )


def _split_pure_right_lhs():
    return graph_of(
        {"sp": split(), "p": _pure_pattern("F")},
        [("sp.out1", "p.in0")],
        {0: "sp.in0"},
        {0: "sp.out0", 1: "p.out0"},
    )


def _split_pure_right_rhs(match: Match):
    fn = algebra.second(str(match.params["F"]))
    tagged = _tagged(match, "p")
    return graph_of(
        {"p": _pure_spec(fn, tagged), "sp": split(tagged=tagged)},
        [("p.out0", "sp.in0")],
        {0: "p.in0"},
        {0: "sp.out0", 1: "sp.out1"},
    )


def _split_pure_right_obligation():
    env = obligation_env(capacity=1)
    algebra.ensure(env, "second(incr)")
    lhs = graph_of(
        {"sp": split(), "p": _pure_spec("incr", False)},
        [("sp.out1", "p.in0")],
        {0: "sp.in0"},
        {0: "sp.out0", 1: "p.out0"},
    )
    rhs = graph_of(
        {"p": _pure_spec("second(incr)", False), "sp": split(tagged=False)},
        [("p.out0", "sp.in0")],
        {0: "p.in0"},
        {0: "sp.out0", 1: "sp.out1"},
    )
    yield lhs, rhs, env, io_values({0: (("y", 1), ("z", 2))})


def split_pure_right() -> Rewrite:
    """A Pure on a Split's right output moves before the Split."""
    return Rewrite(
        name="split-pure-right",
        lhs=_split_pure_right_lhs(),
        rhs=_split_pure_right_rhs,
        verified=True,
        obligation=_split_pure_right_obligation,
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
        {"ja": join(), "jb": join(), "p": _pure_spec("assocr", False)},
        [("ja.out0", "jb.in0"), ("jb.out0", "p.in0")],
        {0: "ja.in0", 1: "ja.in1", 2: "jb.in1"},
        {0: "p.out0"},
    )


def _join_assoc_obligation():
    env = obligation_env(capacity=1)
    algebra.ensure(env, "assocr")
    yield _join_assoc_lhs(), _join_assoc_rhs(None), env, io_values(
        {0: ("a",), 1: ("b",), 2: ("c",)}
    )


def join_assoc() -> Rewrite:
    """``Join(a, Join(b, c))`` re-associates to ``assocr(Join(Join(a,b),c))``."""
    return Rewrite(
        name="join-assoc",
        lhs=_join_assoc_lhs(),
        rhs=_join_assoc_rhs,
        verified=True,
        obligation=_join_assoc_obligation,
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
        {"jn": join(), "p": _pure_spec("swap", False)},
        [("jn.out0", "p.in0")],
        {0: "jn.in1", 1: "jn.in0"},
        {0: "p.out0"},
    )


def _join_swap_obligation():
    env = obligation_env(capacity=1)
    algebra.ensure(env, "swap")
    yield _join_swap_lhs(), _join_swap_rhs(None), env, io_values({0: ("a",), 1: ("b",)})


def join_swap() -> Rewrite:
    """``Join(a, b)`` equals ``swap(Join(b, a))`` (commutativity)."""
    return Rewrite(
        name="join-swap",
        lhs=_join_swap_lhs(),
        rhs=_join_swap_rhs,
        verified=True,
        obligation=_join_swap_obligation,
        description="Join commutativity via a swap Pure (split/join algebra)",
    )
