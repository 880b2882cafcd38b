"""Tests for the mini-IR and its reference interpreter."""

import gc

import numpy as np
import pytest

from repro.errors import FrontendError
from repro.hls.ir import (
    BinOp,
    Const,
    DoWhile,
    Kernel,
    Load,
    OuterLoop,
    Program,
    Select,
    StoreOp,
    UnOp,
    Var,
    eval_expr,
    run_program,
    var_occurrences,
)


class TestEvalExpr:
    def test_arithmetic(self):
        expr = BinOp("add", BinOp("mul", Var("x"), Const(3)), Const(1))
        assert eval_expr(expr, {"x": 4}, {}) == 13

    def test_comparisons(self):
        assert eval_expr(BinOp("lt", Var("a"), Const(5)), {"a": 3}, {}) is True
        assert eval_expr(UnOp("ne0", Const(0)), {}, {}) is False

    def test_load_flat_indexing(self):
        arrays = {"A": np.arange(6).reshape(2, 3)}
        assert eval_expr(Load("A", Const(4)), {}, arrays) == 4

    def test_select(self):
        expr = Select(BinOp("lt", Var("x"), Const(0)), Const(-1), Const(1))
        assert eval_expr(expr, {"x": -5}, {}) == -1
        assert eval_expr(expr, {"x": 5}, {}) == 1

    def test_unbound_variable_rejected(self):
        with pytest.raises(FrontendError):
            eval_expr(Var("nope"), {}, {})

    def test_unknown_op_rejected(self):
        with pytest.raises(FrontendError):
            eval_expr(BinOp("frob", Const(1), Const(2)), {}, {})


class TestVarOccurrences:
    def test_counts_multiplicity(self):
        expr = BinOp("add", Var("x"), BinOp("mul", Var("x"), Var("y")))
        assert var_occurrences(expr) == {"x": 2, "y": 1}

    def test_counts_through_select_and_load(self):
        expr = Select(Var("c"), Load("A", Var("i")), Var("i"))
        assert var_occurrences(expr) == {"c": 1, "i": 2}


class TestDoWhileValidation:
    def test_missing_body_update_rejected(self):
        with pytest.raises(FrontendError):
            DoWhile("bad", ("a", "b"), {"a": Var("a")}, Var("a"), ("a",))

    def test_non_state_read_rejected(self):
        with pytest.raises(FrontendError):
            DoWhile("bad", ("a",), {"a": Var("outer")}, Var("a"), ("a",))

    def test_bad_result_var_rejected(self):
        with pytest.raises(FrontendError):
            DoWhile("bad", ("a",), {"a": Var("a")}, Var("a"), ("zzz",))

    def test_effectful_flag(self):
        loop = DoWhile(
            "st",
            ("a",),
            {"a": Var("a")},
            Var("a"),
            ("a",),
            stores=(StoreOp("out", Var("a"), Var("a")),),
        )
        assert loop.is_effectful()


class TestKernelExecution:
    def _countdown(self, n_points=3):
        loop = DoWhile(
            "count",
            ("n", "i"),
            {"n": BinOp("sub", Var("n"), Const(1)), "i": Var("i")},
            BinOp("lt", Const(0), Var("n")),
            ("n", "i"),
        )
        kernel = Kernel(
            "count",
            loop,
            (OuterLoop("i", n_points),),
            {"n": BinOp("add", Var("i"), Const(1)), "i": Var("i")},
            (StoreOp("out", Var("i"), Var("n")),),
        )
        return Program("count", {"out": np.full(n_points, -1.0)}, [kernel])

    def test_outer_points_row_major(self):
        loop = DoWhile("l", ("a",), {"a": Var("a")}, UnOp("eq0", Var("a")), ("a",))
        kernel = Kernel(
            "k",
            loop,
            (OuterLoop("i", 2), OuterLoop("j", 3)),
            {"a": Const(1)},
        )
        points = list(kernel.outer_points())
        assert points[0] == {"i": 0, "j": 0}
        assert points[1] == {"i": 0, "j": 1}
        assert points[-1] == {"i": 1, "j": 2}

    def test_outer_points_leave_no_cyclic_garbage(self):
        loop = DoWhile("l", ("a",), {"a": Var("a")}, UnOp("eq0", Var("a")), ("a",))
        kernel = Kernel(
            "k", loop, (OuterLoop("i", 2), OuterLoop("j", 3)), {"a": Const(1)}
        )
        gc.collect()
        gc.disable()
        try:
            points = list(kernel.outer_points())
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert len(points) == 6

    def test_trip_counts(self):
        program = self._countdown()
        trace = run_program(program)
        assert trace.trip_counts == [[1, 2, 3]]  # do-while runs at least once

    def test_run_program_stores_results(self):
        program = self._countdown()
        trace = run_program(program)
        assert list(trace.arrays["out"]) == [0, 0, 0]
        assert trace.inner_iterations == 6

    def test_store_history_recorded_in_order(self):
        program = self._countdown()
        trace = run_program(program)
        assert [entry[1] for entry in trace.store_history] == [0, 1, 2]

    def test_in_body_stores_recorded(self):
        loop = DoWhile(
            "w",
            ("n", "i"),
            {"n": BinOp("sub", Var("n"), Const(1)), "i": Var("i")},
            BinOp("lt", Const(0), Var("n")),
            ("n",),
            stores=(StoreOp("log", Var("n"), Var("i")),),
        )
        kernel = Kernel(
            "w",
            loop,
            (OuterLoop("i", 2),),
            {"n": Const(2), "i": Var("i")},
        )
        program = Program("w", {"log": np.zeros(4)}, [kernel])
        trace = run_program(program)
        assert [(a, i) for a, i, _ in trace.store_history] == [
            ("log", 1),
            ("log", 0),
            ("log", 1),
            ("log", 0),
        ]

    def test_missing_init_rejected(self):
        loop = DoWhile("l", ("a",), {"a": Var("a")}, UnOp("eq0", Var("a")), ("a",))
        with pytest.raises(FrontendError):
            Kernel("k", loop, (OuterLoop("i", 1),), init={})
