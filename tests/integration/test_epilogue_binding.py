"""Regression: the epilogue sees a loop's exit values over the outer ones.

``Kernel.epilogue`` stores are evaluated with the result variables bound to
the loop's exit values.  When a result variable has the same name as an
outer variable, the exit value wins.  Both simulators' Collectors have
always done so; the reference interpreter once let the outer value win,
and every dataflow flow of the program below then came out incorrect.
"""

import numpy as np
import pytest

from repro.eval.runner import DATAFLOW_FLOWS, evaluate_program
from repro.hls.area import latency_of
from repro.hls.ir import BinOp, Const, DoWhile, Kernel, OuterLoop, Program, StoreOp, Var, run_program

from ..property.test_sim_backend_equivalence import build, default_placement, run_backend


def shadowing_program() -> Program:
    """Outer ``i`` over 2 points; state ``i`` counts down from 3 to 0."""
    loop = DoWhile(
        "countdown",
        ("i",),
        {"i": BinOp("sub", Var("i"), Const(1))},
        BinOp("lt", Const(0), Var("i")),
        ("i",),
    )
    kernel = Kernel(
        "countdown",
        loop,
        (OuterLoop("i", 2),),
        {"i": Const(3)},
        epilogue=(StoreOp("out", Var("i"), Const(7.0)),),
    )
    return Program("shadow", {"out": np.zeros(2)}, [kernel])


def test_reference_binds_exit_values_over_outer_values():
    trace = run_program(shadowing_program())
    assert trace.trip_counts == [[3, 3]]
    assert trace.store_history == [("out", 0, 7.0), ("out", 0, 7.0)]
    assert list(trace.arrays["out"]) == [7.0, 0.0]


@pytest.mark.parametrize("backend", ["compiled", "interp"])
@pytest.mark.parametrize("flow", DATAFLOW_FLOWS)
def test_every_dataflow_flow_agrees_with_the_reference(flow, backend):
    if backend == "compiled":
        result = evaluate_program(shadowing_program(), (flow,))[0][flow]
        assert result.correct
        assert result.stores_in_order
        return
    # The interpreter oracle, run directly on each kernel of the flow.
    reference = run_program(shadowing_program())
    program, env, units = build(shadowing_program, flow)
    pristine = program.copy_arrays()
    observations, arrays = run_backend(
        program, env, units, default_placement, "interp", pristine, latency_of
    )
    assert np.array_equal(arrays["out"], reference.arrays["out"])
    history = [store for *_, stores in observations for store in stores]
    assert history == reference.store_history
