"""Differential tests for the rare branches of the compiled engine's
shape-specialised steps.

Each case runs one circuit on both backends and requires identical
``SimStats.to_dict()``, firing traces and arrays.  The interpreter run is
probed (:class:`ProbedSimulator`) to show that the circuit really takes the
branch under test: since both backends agree event for event, a branch the
interpreter takes is one the compiled step took as well.
"""

from collections import Counter

import numpy as np
import pytest

from repro.components import branch, default_environment, fork, join, merge, operator, tagger
from repro.core import ExprHigh, NodeSpec
from repro.errors import SemanticsError
from repro.hls.area import latency_of
from repro.hls.ir import BinOp, Const, DoWhile, Kernel, OuterLoop, Program, Select, StoreOp, Var
from repro.sim.compiled import compile_circuit
from repro.sim.cycle import CycleSimulator
from repro.sim.trace import FiringTrace

from ..property.test_sim_backend_equivalence import KERNELS, assert_backends_agree, build
from ..property.test_sim_backend_equivalence import default_placement

POINTS = 8


class ProbedSimulator(CycleSimulator):
    """The interpreter, counting the rare events the specialised steps
    handle out of line: ``("misaligned", type, inputs)`` for a firing
    attempt whose input heads carry different tags, ``("blocked", type)``
    for a due pipeline head whose destination is full, and ``("held",
    type)`` for a combinational firing held because an output is full."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.events: Counter = Counter()

    def _pop_aligned(self, channels):
        if all(c.can_pop() for c in channels) and len({c.head()[0] for c in channels}) > 1:
            typ = self.graph.nodes[channels[0].dst.node].typ
            self.events["misaligned", typ, len(channels)] += 1
        return super()._pop_aligned(channels)

    def _drain_pipeline(self, name, spec, state):
        pipeline = state["pipeline"]
        delivered = super()._drain_pipeline(name, spec, state)
        if not delivered and pipeline and pipeline[0][0] == 0:
            self.events["blocked", spec.typ] += 1
        return delivered

    def _start(self, name, state, outputs):
        held = len(state["pipeline"])
        super()._start(name, state, outputs)
        if self._latency(name) == 0 and len(state["pipeline"]) > held:
            self.events["held", self.graph.nodes[name].typ] += 1


def run_both(graph, env, kernel, arrays, capacities, latency):
    """Run compiled and probed interpreter; require identical observations.

    Returns the interpreter's probe events and the compiled run's arrays.
    """
    pristine = {key: value.copy() for key, value in arrays.items()}
    compiled_arrays = {key: value.copy() for key, value in pristine.items()}
    compiled_trace = FiringTrace()
    compiled = compile_circuit(
        graph, env, kernel, capacities=capacities, latency_of=latency
    ).run(compiled_arrays, trace=compiled_trace)
    interp_arrays = {key: value.copy() for key, value in pristine.items()}
    interp_trace = FiringTrace()
    simulator = ProbedSimulator(
        graph, env, kernel, interp_arrays, capacities, latency, trace=interp_trace
    )
    interp = simulator.run()
    assert compiled.to_dict() == interp.to_dict()
    assert compiled_trace.events == interp_trace.events
    for key in pristine:
        assert np.array_equal(compiled_arrays[key], interp_arrays[key])
    return simulator.events, compiled_arrays


# -- a circuit that reorders tags ----------------------------------------------
#
# Driver -> Tagger -> Fork.  One fork output reaches the combiner in tag
# order; another goes through a tagged Branch that sends odd values through
# a slow operator and even ones straight on, then a Merge, so the combiner's
# other input sees the even tags first.  The combiner's heads therefore
# disagree, and only the tag aligner can pair them.


def reorder_latency(typ, params):
    if typ == "Operator":
        return 6 if params.get("op") == "slow" else 2
    if typ in ("Fork", "Join", "Split"):
        return 0
    return 1


def reorder_environment():
    env = default_environment()
    env.register_function("odd", lambda x: x % 2 == 1, 1)
    env.register_function("slow", lambda x: x, 1)
    env.register_function("sum2", lambda pair: pair[0] + pair[1], 1)
    env.register_function("pick", lambda c, t, f: t + 10 * f if c else f, 3)
    return env


def reorder_kernel():
    loop = DoWhile("reorder", ("x",), {"x": Var("x")}, BinOp("lt", Var("x"), Const(0)), ("x",))
    return Kernel(
        "reorder",
        loop,
        (OuterLoop("i", POINTS),),
        {"x": Var("i")},
        (StoreOp("out", Var("i"), Var("x")),),
        tags=4,
    )


def reorder_circuit(combiner):
    """(graph, env, kernel, arrays) with *combiner* fed in and out of order.

    *combiner* is ``"Join"``, ``"Operator"`` (a tagged ``add``),
    ``"Branch"`` or ``"select"`` (a tagged three-input operator).
    """
    in_order = {"Join": 1, "Operator": 1, "Branch": 1, "select": 2}[combiner]
    graph = ExprHigh()
    graph.add_node("driver", NodeSpec.make("Driver", [], ["out0"], {"kernel": "reorder"}))
    graph.add_node("collector", NodeSpec.make("Collector", ["in0"], [], {"kernel": "reorder"}))
    graph.add_node("tagger", tagger(tags=4))
    graph.add_node("fan", fork(in_order + 2))
    graph.add_node("parity", operator("odd", 1, tagged=True))
    graph.add_node("steer", branch(tagged=True))
    graph.add_node("slow", operator("slow", 1, tagged=True))
    graph.add_node("rejoin", merge())
    graph.connect("driver", "out0", "tagger", "in0")
    graph.connect("tagger", "out1", "collector", "in0")
    graph.connect("tagger", "out0", "fan", "in0")
    graph.connect("fan", f"out{in_order}", "parity", "in0")
    graph.connect("fan", f"out{in_order + 1}", "steer", "in0")
    graph.connect("parity", "out0", "steer", "cond")
    graph.connect("steer", "out0", "slow", "in0")
    graph.connect("slow", "out0", "rejoin", "in0")
    graph.connect("steer", "out1", "rejoin", "in1")
    if combiner == "Join":
        graph.add_node("combine", join(tagged=True))
        graph.add_node("unpack", operator("sum2", 1, tagged=True))
        graph.connect("fan", "out0", "combine", "in0")
        graph.connect("rejoin", "out0", "combine", "in1")
        graph.connect("combine", "out0", "unpack", "in0")
        graph.connect("unpack", "out0", "tagger", "in1")
    elif combiner == "Operator":
        graph.add_node("combine", operator("add", 2, tagged=True))
        graph.connect("fan", "out0", "combine", "in0")
        graph.connect("rejoin", "out0", "combine", "in1")
        graph.connect("combine", "out0", "tagger", "in1")
    elif combiner == "Branch":
        # Odd values are incremented on the way back, so a value steered by
        # another tag's condition shows in the result.
        graph.add_node("test", operator("odd", 1, tagged=True))
        graph.add_node("combine", branch(tagged=True))
        graph.add_node("bump", operator("incr", 1, tagged=True))
        graph.add_node("back", merge())
        graph.connect("fan", "out0", "test", "in0")
        graph.connect("test", "out0", "combine", "cond")
        graph.connect("rejoin", "out0", "combine", "in0")
        graph.connect("combine", "out0", "bump", "in0")
        graph.connect("bump", "out0", "back", "in0")
        graph.connect("combine", "out1", "back", "in1")
        graph.connect("back", "out0", "tagger", "in1")
    else:
        graph.add_node("test", operator("odd", 1, tagged=True))
        graph.add_node("combine", operator("pick", 3, tagged=True))
        graph.connect("fan", "out0", "test", "in0")
        graph.connect("test", "out0", "combine", "in0")
        graph.connect("fan", "out1", "combine", "in1")
        graph.connect("rejoin", "out0", "combine", "in2")
        graph.connect("combine", "out0", "tagger", "in1")
    arrays = {"out": np.zeros(POINTS)}
    return graph, reorder_environment(), reorder_kernel(), arrays


class TestMisalignedHeads:
    """Tagged two-input Operator, Branch and Join, and a three-input
    operator, whose input heads carry different tags: the specialised step
    hands them to the aligner, which must pick the interpreter's tag."""

    @pytest.mark.parametrize(
        "combiner, inputs",
        [("Join", 2), ("Operator", 2), ("Branch", 2), ("select", 3)],
    )
    @pytest.mark.parametrize("capacity", [2, 4])
    def test_aligner_pairs_the_interpreters_tags(self, combiner, inputs, capacity):
        graph, env, kernel, arrays = reorder_circuit(combiner)
        capacities = {
            (src, dst): capacity for dst, src in graph.connections.items()
        }
        events, out = run_both(graph, env, kernel, arrays, capacities, reorder_latency)
        typ = "Operator" if combiner == "select" else combiner
        assert events["misaligned", typ, inputs] > 0, events
        values = np.arange(POINTS, dtype=float)
        expected = {
            "Join": 2 * values,
            "Operator": 2 * values,
            "Branch": np.where(values % 2 == 1, values + 1, values),
            "select": np.where(values % 2 == 1, 11 * values, values),
        }[combiner]
        assert np.array_equal(out["out"], expected)


class TestBlockedAndHeldTokens:
    def test_blocked_output_under_a_due_pipeline_head(self):
        # Two slots per channel: the slow operator's due results wait for
        # the Merge behind it, which waits for the tagged Branch.
        graph, env, kernel, arrays = reorder_circuit("Branch")
        capacities = {(src, dst): 2 for dst, src in graph.connections.items()}
        events, _ = run_both(graph, env, kernel, arrays, capacities, reorder_latency)
        assert events["blocked", "Operator"] > 0, events

    def test_combinational_join_whose_output_is_full(self):
        # One slot per channel and a Driver that issues every other cycle:
        # the Join's pair waits for the operand that the slower side
        # delivers one cycle later, so the next pair finds the channel full
        # and is held, and the consumer frees it later in that same cycle.
        graph, env, kernel, arrays = held_join_circuit()
        events, out = run_both(graph, env, kernel, arrays, {}, reorder_latency)
        assert events["held", "Join"] > 0, events
        assert np.array_equal(out["out"], 3 * np.arange(POINTS, dtype=float))


def held_join_circuit():
    """A tagged Join feeding an operator whose other operand comes from a
    latency-2 operator on the same fork; ``(x, x)`` and ``x`` add to 3x."""
    graph = ExprHigh()
    graph.add_node("driver", NodeSpec.make("Driver", [], ["out0"], {"kernel": "reorder"}))
    graph.add_node("collector", NodeSpec.make("Collector", ["in0"], [], {"kernel": "reorder"}))
    graph.add_node("tagger", tagger(tags=4))
    graph.add_node("fan", fork(3))
    graph.add_node("pair", join(tagged=True))
    graph.add_node("delay", operator("id", 1, tagged=True))
    graph.add_node("combine", operator("addpair", 2, tagged=True))
    graph.connect("driver", "out0", "tagger", "in0")
    graph.connect("tagger", "out1", "collector", "in0")
    graph.connect("tagger", "out0", "fan", "in0")
    graph.connect("fan", "out0", "delay", "in0")
    graph.connect("fan", "out1", "pair", "in0")
    graph.connect("fan", "out2", "pair", "in1")
    graph.connect("pair", "out0", "combine", "in0")
    graph.connect("delay", "out0", "combine", "in1")
    graph.connect("combine", "out0", "tagger", "in1")
    env = reorder_environment()
    env.register_function("addpair", lambda pair, y: pair[0] + pair[1] + y, 2)
    return graph, env, reorder_kernel(), {"out": np.zeros(POINTS)}


def select_program():
    """A countdown whose body selects between two computed values, which
    lowers to a three-input ``select`` operator."""
    loop = DoWhile(
        "pick",
        ("n", "acc"),
        {
            "n": BinOp("sub", Var("n"), Const(1)),
            "acc": Select(
                BinOp("lt", Var("acc"), Var("n")),
                BinOp("add", Var("acc"), Var("n")),
                BinOp("sub", Var("acc"), Var("n")),
            ),
        },
        BinOp("lt", Const(0), Var("n")),
        ("acc",),
    )
    kernel = Kernel(
        "pick",
        loop,
        (OuterLoop("i", 4),),
        {"n": BinOp("add", Var("i"), Const(3)), "acc": Var("i")},
        (StoreOp("out", Var("i"), Var("acc")),),
        tags=2,
    )
    return Program("pick", {"out": np.zeros(4)}, [kernel])


class TestThreeInputSelect:
    @pytest.mark.parametrize("transform", [None, "ooo", "graphiti"])
    def test_backends_agree(self, transform):
        _, _, units = build(select_program, transform)
        arities = [
            len(spec.in_ports)
            for _, graph, _ in units
            for spec in graph.nodes.values()
            if spec.typ == "Operator"
        ]
        assert 3 in arities
        assert_backends_agree(select_program, transform, default_placement)


class TestUnresolvedOperator:
    def test_fails_at_the_firing_point_with_the_interpreters_message(self):
        program, env, units = build(KERNELS["matvec"], None)
        [(ck, graph, _)] = units
        graph = graph.copy()
        name = next(n for n, spec in graph.nodes.items() if spec.typ == "Operator")
        graph.replace_spec(name, graph.nodes[name].with_params(op="no_such_function"))
        placement = default_placement(graph, None)
        errors, traces = [], []
        for backend in ("compiled", "interp"):
            trace = FiringTrace()
            arrays = program.copy_arrays()
            with pytest.raises(SemanticsError) as caught:
                if backend == "compiled":
                    compile_circuit(
                        graph, env, ck.kernel, capacities=placement, latency_of=latency_of
                    ).run(arrays, trace=trace)
                else:
                    CycleSimulator(
                        graph, env, ck.kernel, arrays, placement, latency_of, trace=trace
                    ).run()
            errors.append(str(caught.value))
            traces.append(trace.events)
        assert errors[0] == errors[1]
        assert "no_such_function" in errors[0]
        assert traces[0] == traces[1]
