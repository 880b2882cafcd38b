"""Tests for the Vericert-substitute static scheduler."""

import numpy as np
import pytest

from repro.benchmarks import load_benchmark, matvec
from repro.hls.ir import (
    BinOp, Const, DoWhile, Kernel, Load, OuterLoop, Program, StoreOp, Var, run_program,
)
from repro.hls.static_sched import schedule_length, schedule_program


class TestScheduleLength:
    def test_empty_schedule(self):
        assert schedule_length([]) == 0

    def test_single_op(self):
        length = schedule_length([BinOp("add", Var("a"), Var("b"))])
        assert length >= 1

    def test_dependences_serialize(self):
        chain = BinOp("fadd", BinOp("fadd", Var("a"), Var("b")), Var("c"))
        single = schedule_length([BinOp("fadd", Var("a"), Var("b"))])
        assert schedule_length([chain]) >= 2 * single

    def test_shared_fp_adder_serializes_independent_adds(self):
        two = [BinOp("fadd", Var("a"), Var("b")), BinOp("fadd", Var("c"), Var("d"))]
        one = [BinOp("fadd", Var("a"), Var("b"))]
        assert schedule_length(two) >= 2 * schedule_length(one)

    def test_integer_alus_allow_some_parallelism(self):
        four = [BinOp("add", Var("a"), Var("b")) for _ in range(4)]
        one = [BinOp("add", Var("a"), Var("b"))]
        # two ALUs: four adds take about twice one add, not four times
        assert schedule_length(four) <= 3 * schedule_length(one)

    def test_memory_port_is_single(self):
        loads = [Load("A", Var("i")), Load("B", Var("i"))]
        one = [Load("A", Var("i"))]
        assert schedule_length(loads) >= 2 * schedule_length(one)

    def test_stores_occupy_memory_port(self):
        assert schedule_length([], stores=2) > schedule_length([], stores=1) > 0


class TestScheduleProgram:
    def test_cycles_scale_with_trip_count(self):
        small = schedule_program(matvec(6))
        large = schedule_program(matvec(12))
        assert large.cycles > 3 * small.cycles  # quadratic iteration growth

    def test_area_is_small_and_constant_dsp(self):
        report = schedule_program(matvec(8))
        assert report.area.dsps == 5  # one shared FP multiplier
        assert report.area.luts < 1500

    def test_clock_beats_dataflow_fabric(self):
        report = schedule_program(matvec(8))
        assert report.area.clock_period < 5.6

    def test_iterations_counted(self):
        report = schedule_program(matvec(6))
        assert report.iterations == 36

    def test_no_fp_program_uses_no_dsps(self):
        loop = DoWhile(
            "int",
            ("n",),
            {"n": BinOp("sub", Var("n"), Const(1))},
            BinOp("lt", Const(0), Var("n")),
            ("n",),
        )
        kernel = Kernel(
            "int", loop, (OuterLoop("i", 2),), {"n": Const(3)},
            (StoreOp("out", Var("i"), Var("n")),),
        )
        program = Program("int", {"out": np.zeros(2)}, [kernel])
        assert schedule_program(program).area.dsps == 0


def countdown(name, outer, start):
    """A kernel counting ``n`` down from *start* to 0 at each outer point."""
    loop = DoWhile(
        name,
        ("n",),
        {"n": BinOp("sub", Var("n"), Const(1))},
        BinOp("lt", Const(0), Var("n")),
        ("n",),
    )
    return Kernel(name, loop, (OuterLoop("i", outer),), {"n": start})


class TestTripCountsSeeStores:
    """Trip counts come from the memory each loop instance really sees."""

    def test_bound_written_by_an_earlier_kernel(self):
        # "set" stores 4 into lim[0]; "use" counts down from lim[0] twice.
        writer = Kernel(
            "set",
            countdown("set", 1, Const(1)).loop,
            (OuterLoop("i", 1),),
            {"n": Const(1)},
            (StoreOp("lim", Const(0), Const(4)),),
        )
        reader = countdown("use", 2, Load("lim", Const(0)))
        program = Program("two", {"lim": np.ones(1)}, [writer, reader])
        report = schedule_program(program)
        assert run_program(program).trip_counts == [[1], [4, 4]]
        assert report.iterations == 1 + 4 + 4
        assert program.arrays["lim"][0] == 1  # the program's arrays are untouched

    def test_bound_written_by_an_earlier_instance(self):
        # Each instance stores its exit count plus 3 into lim[0], which
        # bounds the next instance: 1, then 0 + 3, then 0 + 3.
        kernel = countdown("chain", 3, Load("lim", Const(0)))
        kernel = Kernel(
            "chain", kernel.loop, kernel.outer, kernel.init,
            (StoreOp("lim", Const(0), BinOp("add", Var("n"), Const(3))),),
            sequential_outer=True,
        )
        program = Program("chain", {"lim": np.ones(1)}, [kernel])
        assert run_program(program).trip_counts == [[1, 3, 3]]
        assert schedule_program(program).iterations == 7

    def test_given_trace_is_used_without_running_the_program(self, monkeypatch):
        import repro.hls.static_sched as static_sched

        program = matvec(6)
        trace = run_program(program)
        expected = schedule_program(program)

        def refuse(*args, **kwargs):
            raise AssertionError("schedule_program ran the program again")

        monkeypatch.setattr(static_sched, "run_program", refuse)
        report = schedule_program(program, trace)
        assert (report.cycles, report.iterations) == (expected.cycles, expected.iterations)
        assert report.area.to_dict() == expected.area.to_dict()


class TestComparisonShape:
    def test_vericert_cycles_dominate_dataflow(self):
        """The architectural claim: static scheduling with shared units has
        a much higher cycle count on irregular-latency loops."""
        from repro.eval.runner import evaluate_program

        result, _ = evaluate_program(matvec(8), ("Vericert", "DF-IO"))
        vericert, df_io = result["Vericert"], result["DF-IO"]
        assert vericert.cycles > 1.5 * df_io.cycles
        assert vericert.area.clock_period < df_io.area.clock_period
