"""Fingerprint semantics: stability, sensitivity, and key coverage."""

import numpy as np

from repro.benchmarks import matvec
from repro.components import default_environment, fork, mux
from repro.core import ExprHigh
from repro.exec.hashing import (
    eval_unit_key,
    fingerprint,
    graph_fingerprint,
    obligation_fingerprint,
    program_fingerprint,
    stimuli_fingerprint,
)
from repro.hls.frontend import compile_program
from repro.rewriting.rules.combine import mux_combine


def small_graph() -> ExprHigh:
    graph = ExprHigh()
    graph.add_node("cfork", fork(2))
    graph.add_node("m_a", mux())
    graph.add_node("m_b", mux())
    graph.connect("cfork", "out0", "m_a", "cond")
    graph.connect("cfork", "out1", "m_b", "cond")
    graph.mark_input(0, "cfork", "in0")
    graph.mark_input(1, "m_a", "in0")
    graph.mark_input(2, "m_a", "in1")
    graph.mark_input(3, "m_b", "in0")
    graph.mark_input(4, "m_b", "in1")
    graph.mark_output(0, "m_a", "out0")
    graph.mark_output(1, "m_b", "out0")
    return graph


class TestFingerprint:
    def test_part_boundaries_matter(self):
        assert fingerprint("ab", "c") != fingerprint("a", "bc")

    def test_deterministic(self):
        assert fingerprint("x", "y") == fingerprint("x", "y")


class TestGraphFingerprint:
    def test_copy_is_identical(self):
        graph = small_graph()
        assert graph_fingerprint(graph) == graph_fingerprint(graph.copy())

    def test_insertion_order_does_not_matter(self):
        graph = small_graph()
        other = ExprHigh()
        # Same graph, nodes added in a different order.
        other.add_node("m_b", mux())
        other.add_node("m_a", mux())
        other.add_node("cfork", fork(2))
        other.connect("cfork", "out0", "m_a", "cond")
        other.connect("cfork", "out1", "m_b", "cond")
        for index, (node, port) in enumerate(
            [("cfork", "in0"), ("m_a", "in0"), ("m_a", "in1"), ("m_b", "in0"), ("m_b", "in1")]
        ):
            other.mark_input(index, node, port)
        other.mark_output(0, "m_a", "out0")
        other.mark_output(1, "m_b", "out0")
        assert graph_fingerprint(graph) == graph_fingerprint(other)

    def test_param_edit_changes_hash(self):
        graph = small_graph()
        edited = graph.copy()
        edited.nodes["m_a"] = edited.nodes["m_a"].with_params(tagged=True)
        assert graph_fingerprint(graph) != graph_fingerprint(edited)

    def test_connection_edit_changes_hash(self):
        graph = small_graph()
        edited = small_graph()
        edited.disconnect("m_b", "cond")
        edited.connect("cfork", "out1", "m_b", "cond")  # same edge: identical again
        assert graph_fingerprint(graph) == graph_fingerprint(edited)
        edited.disconnect("m_b", "cond")
        assert graph_fingerprint(graph) != graph_fingerprint(edited)


class TestEnvironmentSignature:
    def test_capacity_changes_signature(self):
        assert (
            default_environment(capacity=1).signature()
            != default_environment(capacity=2).signature()
        )

    def test_function_registration_changes_signature(self):
        env = default_environment()
        before = env.signature()
        env.register_function("extra_fn", lambda value: value, 1)
        assert env.signature() != before


class TestProgramAndStimuli:
    def test_program_fingerprint_sensitive_to_arrays(self):
        program = matvec(4)
        before = program_fingerprint(program)
        program.arrays["x"][0] += 1.0
        assert program_fingerprint(program) != before

    def test_stimuli_fingerprint_order_insensitive(self):
        assert stimuli_fingerprint({"a": (1, 2), "b": (3,)}) == stimuli_fingerprint(
            {"b": (3,), "a": (1, 2)}
        )
        assert stimuli_fingerprint({"a": (1, 2)}) != stimuli_fingerprint({"a": (2, 1)})


class TestUnitKeys:
    def test_eval_unit_key_is_stable_and_distinguishes_programs(self):
        env = default_environment()
        program = matvec(4)
        key = eval_unit_key(program, compile_program(program, env), env)
        again = matvec(4)
        assert eval_unit_key(again, compile_program(again, env), env) == key

        other = matvec(4)
        other.arrays["x"][...] = np.arange(len(other.arrays["x"]))
        other_compiled = compile_program(other, default_environment())
        assert eval_unit_key(other, other_compiled, env) != key

        larger = matvec(5)
        assert eval_unit_key(larger, compile_program(larger, env), env) != key

    def test_obligation_fingerprint_stable_per_rewrite(self):
        first = obligation_fingerprint("mux-combine", list(mux_combine().obligation()))
        second = obligation_fingerprint("mux-combine", list(mux_combine().obligation()))
        assert first == second
