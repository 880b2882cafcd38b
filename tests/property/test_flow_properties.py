"""End-to-end property: random loops compile, transform, and still compute
the sequential semantics.

This is the fuzzing counterpart of the paper's correctness theorem: for
randomly generated (terminating) loop bodies, the DF-IO circuit, the
Graphiti-transformed circuit, and the DF-OoO circuit must all produce the
reference interpreter's results.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.components import default_environment
from repro.eval.runner import evaluate_program
from repro.hls.ir import (
    BinOp,
    Const,
    DoWhile,
    Expr,
    Kernel,
    OuterLoop,
    Program,
    Select,
    StoreOp,
    UnOp,
    Var,
)


@st.composite
def int_exprs(draw, depth=2):
    """Random integer expressions over the state variables a and n."""
    if depth == 0:
        return draw(
            st.sampled_from([Var("a"), Var("n"), Const(1), Const(2), Const(-1)])
        )
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return draw(int_exprs(depth=0))
    if choice == 1:
        op = draw(st.sampled_from(["add", "sub", "mul"]))
        return BinOp(op, draw(int_exprs(depth - 1)), draw(int_exprs(depth - 1)))
    if choice == 2:
        cond = BinOp("lt", draw(int_exprs(depth=0)), draw(int_exprs(depth=0)))
        return Select(cond, draw(int_exprs(depth - 1)), draw(int_exprs(depth - 1)))
    return BinOp("add", draw(int_exprs(depth - 1)), Const(draw(st.integers(-3, 3))))


def build_program(body_expr: Expr, points: int, start: int) -> Program:
    """A countdown loop with a fuzzed accumulator update."""
    loop = DoWhile(
        "fuzz",
        ("n", "a", "i"),
        {
            "n": BinOp("sub", Var("n"), Const(1)),
            "a": body_expr,
            "i": Var("i"),
        },
        BinOp("lt", Const(0), Var("n")),
        ("a", "i"),
    )
    kernel = Kernel(
        "fuzz",
        loop,
        (OuterLoop("i", points),),
        {"n": BinOp("add", Var("i"), Const(start)), "a": Var("i"), "i": Var("i")},
        (StoreOp("out", Var("i"), Var("a")),),
        tags=3,
    )
    return Program("fuzz", {"out": np.zeros(points, dtype=np.int64)}, [kernel])


class TestRandomLoops:
    @given(int_exprs(), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_all_flows_compute_reference(self, body, points, start):
        program = build_program(body, points, start)
        result, _ = evaluate_program(program, ("DF-IO", "GRAPHITI", "DF-OoO"))
        for flow, run in result.flows.items():
            assert run.correct, f"{flow} diverged from the reference"

    @given(int_exprs(), st.integers(2, 3))
    @settings(max_examples=6, deadline=None)
    def test_graphiti_never_slower_than_sequential_by_much(self, body, points):
        """Tagging overhead is bounded: the transformed loop is within a
        constant factor of the in-order circuit even when it cannot win."""
        program = build_program(body, points, 2)
        result, _ = evaluate_program(program, ("DF-IO", "GRAPHITI"))
        assert result["GRAPHITI"].cycles <= 6 * result["DF-IO"].cycles
