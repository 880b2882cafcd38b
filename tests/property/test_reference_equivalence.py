"""Property: the compiled reference interpreter is the tree walk, faster.

:func:`repro.hls.ir.run_program` compiles every kernel expression to a
closure over a tuple of values (:func:`repro.hls.ir.compile_expr`) before it
runs the kernel.  These tests pin it against the recursive tree walk it
replaced:

* a compiled expression returns what :func:`repro.hls.ir.eval_expr` returns,
  of the same type, or raises the same error with the same message, on
  random expression trees (every op, unknown ops, in-range, out-of-range
  and unknown-array loads, unbound variables);
* ``run_program`` gives the same final memory, store history (values and
  their types) and trip counts as a tree walk written out below, on the
  six benchmarks, on 60 fuzz-corpus programs and on hand-built programs;
* the vectorised store-order check in :mod:`repro.eval.runner` gives the
  per-write form's verdict on random store histories.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks import BENCHMARKS, load_benchmark
from repro.eval.runner import _stores_in_order
from repro.hls.ir import (
    _BINOPS,
    _UNOPS,
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
    compile_expr,
    eval_expr,
    run_program,
)
from repro.interop.corpus import generate_case

#: Ten times the active profile's example count: one example costs
#: microseconds.
MANY = settings(max_examples=10 * settings.default.max_examples)


# -- expressions ----------------------------------------------------------------

ENV = {"x": 3, "y": -2.5, "z": True, "k": np.float64(1.5)}
ARRAYS = {
    "A": np.array([0.5, -1.0, 2.0, np.nan, np.inf, -0.0]),
    "B": np.arange(4),
}
SCOPE = {name: slot for slot, name in enumerate(ENV)}
VALUES = tuple(ENV.values())
FLATS = {name: array.flat for name, array in ARRAYS.items()}

leaves = st.one_of(
    st.sampled_from(["x", "y", "z", "k", "unbound"]).map(Var),
    st.one_of(
        st.integers(-3, 7),
        st.sampled_from([0.5, -0.0, 2.0, 1e300, math.nan, math.inf, -math.inf]),
        st.booleans(),
    ).map(Const),
)


def _extend(children):
    return st.one_of(
        st.builds(BinOp, st.sampled_from(sorted(_BINOPS) + ["frob"]), children, children),
        st.builds(UnOp, st.sampled_from(sorted(_UNOPS) + ["frob"]), children),
        st.builds(Load, st.sampled_from(["A", "B", "Z"]), children),
        st.builds(Select, children, children, children),
    )


exprs = st.recursive(leaves, _extend, max_leaves=12)


def outcome(evaluate):
    """``("value", type, value)`` or ``("raise", type, message)``."""
    try:
        with np.errstate(all="ignore"):
            value = evaluate()
    except Exception as exc:  # any error must be the tree walk's error
        return ("raise", type(exc), str(exc))
    return ("value", type(value), value)


def same_outcome(a, b) -> bool:
    if a[:2] != b[:2]:
        return False
    if a[0] == "raise":
        return a[2] == b[2]
    x, y = a[2], b[2]
    return bool(x == y) or (x != x and y != y)  # NaN equals NaN here


@MANY
@given(exprs)
def test_compiled_expression_agrees_with_eval_expr(expr):
    walked = outcome(lambda: eval_expr(expr, ENV, ARRAYS))
    compiled = outcome(lambda: compile_expr(expr, SCOPE, FLATS)(VALUES))
    assert same_outcome(walked, compiled), (walked, compiled)


def test_errors_surface_only_when_evaluation_reaches_them():
    untaken = Select(Const(True), Const(1), BinOp("frob", Var("unbound"), Load("Z", Const(0))))
    assert compile_expr(untaken, SCOPE, FLATS)(VALUES) == 1
    for expr, message in [
        (Var("unbound"), "unbound variable 'unbound'"),
        (BinOp("frob", Const(1), Var("unbound")), "unknown binary op 'frob'"),
        (UnOp("frob", Const(1)), "unknown unary op 'frob'"),
        (Load("A", Const(6)), "bad load A[6]"),
        (Load("Z", Var("x")), "bad load Z[3]"),
    ]:
        walked = outcome(lambda: eval_expr(expr, ENV, ARRAYS))
        assert walked[2] == message
        assert outcome(lambda: compile_expr(expr, SCOPE, FLATS)(VALUES)) == walked


# -- programs -------------------------------------------------------------------


def tree_walk(program: Program):
    """The recursive reference: every expression through :func:`eval_expr`.

    Epilogue stores see the loop's exit values, which shadow outer variables
    of the same name.
    """
    memory = program.copy_arrays()
    history: list = []
    trip_counts: list = []

    def write(store, env):
        index = int(eval_expr(store.index, env, memory))
        value = eval_expr(store.value, env, memory)
        history.append((store.array, index, value))
        memory[store.array].flat[index] = value

    for kernel in program.kernels:
        loop = kernel.loop
        counts: list = []
        trip_counts.append(counts)
        for outer_env in kernel.outer_points():
            state = {v: eval_expr(kernel.init[v], outer_env, memory) for v in loop.state}
            iterations = 0
            while True:
                state = {v: eval_expr(loop.body[v], state, memory) for v in loop.state}
                for store in loop.stores:
                    write(store, state)
                iterations += 1
                if not eval_expr(loop.condition, state, memory):
                    break
            counts.append(iterations)
            env = dict(outer_env)
            env.update((v, state[v]) for v in loop.result_vars)
            for store in kernel.epilogue:
                write(store, env)
    return memory, history, trip_counts


def assert_same_run(program: Program) -> None:
    trace = run_program(program)
    memory, history, trip_counts = tree_walk(program)
    assert trace.trip_counts == trip_counts
    assert [(a, i, type(v), repr(v)) for a, i, v in trace.store_history] == [
        (a, i, type(v), repr(v)) for a, i, v in history
    ]
    assert trace.arrays.keys() == memory.keys()
    for name, array in memory.items():
        assert trace.arrays[name].dtype == array.dtype
        assert trace.arrays[name].tobytes() == array.tobytes()


@pytest.mark.parametrize("name", BENCHMARKS)
def test_benchmarks_run_as_in_the_tree_walk(name):
    assert_same_run(load_benchmark(name))


def test_fuzz_corpus_runs_as_in_the_tree_walk():
    for seed in range(60):
        assert_same_run(generate_case(seed).program)


def countdown(name, outer, init, stores=(), condition=None, epilogue=(), **kwargs):
    """A kernel counting state ``n`` down to zero, carrying outer ``i``."""
    loop = DoWhile(
        name,
        ("n", "i"),
        {"n": BinOp("sub", Var("n"), Const(1)), "i": Var("i")},
        condition or BinOp("lt", Const(0), Var("n")),
        ("n", "i"),
        stores=stores,
    )
    return Kernel(name, loop, outer, {"n": init, "i": Var("i")}, epilogue, **kwargs)


def test_store_read_back_in_the_same_iteration():
    # The second store and the condition load what the first store wrote.
    kernel = countdown(
        "readback",
        (OuterLoop("i", 3),),
        BinOp("add", Var("i"), Const(2)),
        stores=(
            StoreOp("buf", Var("n"), BinOp("fmul", Var("n"), Const(1.5))),
            StoreOp("log", Var("n"), BinOp("fadd", Load("buf", Var("n")), Const(1.0))),
        ),
        condition=BinOp("lt", Const(0.0), Load("buf", Var("n"))),
    )
    program = Program("readback", {"buf": np.zeros(8), "log": np.zeros(8)}, [kernel])
    assert_same_run(program)
    assert run_program(program).trip_counts == [[2, 3, 4]]


def test_sequential_outer_reads_the_previous_epilogue():
    kernel = countdown(
        "chain",
        (OuterLoop("i", 4),),
        BinOp("add", Load("acc", Const(0)), Const(1)),
        epilogue=(StoreOp("acc", Const(0), BinOp("add", Var("i"), Load("acc", Const(0)))),),
        sequential_outer=True,
    )
    program = Program("chain", {"acc": np.zeros(1, dtype=np.int64)}, [kernel])
    assert_same_run(program)


def test_second_kernel_reads_the_first_kernels_stores():
    first = countdown(
        "first",
        (OuterLoop("i", 3),),
        BinOp("add", Var("i"), Const(1)),
        epilogue=(StoreOp("mid", Var("i"), BinOp("mul", Var("i"), Const(2))),),
    )
    second = countdown(
        "second",
        (OuterLoop("j", 2), OuterLoop("i", 3)),
        BinOp("add", Load("mid", Var("i")), Const(1)),
        stores=(StoreOp("out", BinOp("add", Var("n"), Var("i")), Var("n")),),
        epilogue=(StoreOp("out", Var("i"), Var("n")),),
    )
    program = Program("two", {"mid": np.zeros(3), "out": np.zeros(8)}, [first, second])
    assert_same_run(program)
    assert run_program(program).trip_counts == [[1, 2, 3], [1, 3, 5, 1, 3, 5]]


# -- the store-order check --------------------------------------------------------


def stores_in_order_per_write(actual: list, expected: list) -> bool:
    """The store-order check one write at a time, as it was first written."""

    def by_array(history):
        grouped: dict = {}
        for array, index, value in history:
            grouped.setdefault(array, []).append((index, value))
        return grouped

    actual_groups, expected_groups = by_array(actual), by_array(expected)
    if set(actual_groups) != set(expected_groups):
        return False
    for array, writes in expected_groups.items():
        candidate = actual_groups[array]
        if len(candidate) != len(writes):
            return False
        for (ai, av), (ei, ev) in zip(candidate, writes):
            if ai != ei or not np.isclose(float(av), float(ev), atol=1e-6):
                return False
    return True


store_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(-10, 10).map(np.float64),
)
entries = st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 3), store_values)
histories = st.lists(entries, max_size=8)


@st.composite
def history_pairs(draw):
    """An expected history and an actual one derived from it."""
    expected = draw(histories)
    actual = list(expected)
    edit = draw(st.sampled_from(["same", "nudge", "swap", "drop", "reindex", "rename", "fresh"]))
    if edit == "fresh":
        actual = draw(histories)
    elif actual and edit != "same":
        at = draw(st.integers(0, len(actual) - 1))
        array, index, value = actual[at]
        if edit == "nudge":
            delta = draw(st.sampled_from([1e-9, 1e-7, 1e-6, 1e-5, 1e-3, -1e-7]))
            actual[at] = (array, index, float(value) + delta)
        elif edit == "swap":
            other = draw(st.integers(0, len(actual) - 1))
            actual[at], actual[other] = actual[other], actual[at]
        elif edit == "drop":
            del actual[at]
        elif edit == "reindex":
            actual[at] = (array, index + 1, value)
        else:
            actual[at] = ("b" if array == "a" else "a", index, value)
    return actual, expected


@MANY
@given(history_pairs())
def test_vectorised_store_order_check_agrees_with_per_write_check(pair):
    actual, expected = pair
    with np.errstate(all="ignore"):
        assert _stores_in_order(actual, expected) == stores_in_order_per_write(actual, expected)


def test_store_order_check_allows_interleaving_across_arrays():
    expected = [("a", 0, 1.0), ("b", 0, 2.0), ("a", 1, 3.0)]
    actual = [("b", 0, 2.0), ("a", 0, 1.0 + 1e-9), ("a", 1, np.float64(3.0))]
    assert _stores_in_order(actual, expected)
    assert not _stores_in_order([actual[0], actual[2], actual[1]], expected)
