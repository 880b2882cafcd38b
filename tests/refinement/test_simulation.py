"""Tests for the weak-simulation refinement checker (definitions 4.1-4.5)."""

import pytest

from repro.components import buffer, default_environment, fork, merge, pure
from repro.core import ExprHigh, denote
from repro.core.ports import IOPort
from repro.errors import RefinementError, SemanticsError
from repro.refinement import find_weak_simulation, refines, simulation, uniform_stimuli

from .traces import enumerate_traces, trace_inclusion


@pytest.fixture
def env():
    return default_environment(capacity=2)


def single_node_module(env, spec):
    g = ExprHigh()
    g.add_node("n", spec)
    for i, port in enumerate(spec.in_ports):
        g.mark_input(i, "n", port)
    for i, port in enumerate(spec.out_ports):
        g.mark_output(i, "n", port)
    return denote(g.lower(), env)


def buffer_chain_module(env, length):
    g = ExprHigh()
    for i in range(length):
        g.add_node(f"b{i}", buffer(slots=1))
    for i in range(length - 1):
        g.connect(f"b{i}", "out0", f"b{i+1}", "in0")
    g.mark_input(0, "b0", "in0")
    g.mark_output(0, f"b{length-1}", "out0")
    return denote(g.lower(), env)


class TestReflexivityAndBasics:
    def test_module_refines_itself(self, env):
        mod = single_node_module(env, fork(2))
        assert refines(mod, mod, uniform_stimuli(mod, (0, 1)))

    def test_interface_mismatch_fails(self, env):
        impl = single_node_module(env, fork(2))
        spec = single_node_module(env, buffer())
        result = find_weak_simulation(impl, spec, uniform_stimuli(impl, (0,)))
        assert not result.holds
        assert result.violation.kind == "interface"

    def test_missing_stimuli_rejected(self, env):
        mod = single_node_module(env, fork(2))
        with pytest.raises(RefinementError):
            find_weak_simulation(mod, mod, {})

    def test_position_budget_overrun_raises(self, env, monkeypatch):
        monkeypatch.setattr(simulation, "POSITION_LIMIT", 3)
        mod = buffer_chain_module(env, 2)
        with pytest.raises(SemanticsError, match="limit of 3 positions"):
            find_weak_simulation(mod, mod, uniform_stimuli(mod, (0, 1)))

    def test_certificate_relation_covers_init(self, env):
        mod = single_node_module(env, buffer())
        result = find_weak_simulation(mod, mod, uniform_stimuli(mod, (0, 1)))
        certificate = result.raise_on_failure()
        for s0 in mod.init:
            assert certificate.related(s0, s0)


class TestBufferRefinements:
    def test_small_buffer_refines_big_buffer(self, env):
        small = single_node_module(env, buffer(slots=1))
        big = single_node_module(env, buffer(slots=2))
        assert refines(small, big, uniform_stimuli(small, (0, 1)))

    def test_big_buffer_does_not_refine_small(self, env):
        small = single_node_module(env, buffer(slots=1))
        big = single_node_module(env, buffer(slots=2))
        result = find_weak_simulation(big, small, uniform_stimuli(big, (0, 1)))
        assert not result.holds
        assert result.violation.kind == "input"

    def test_buffer_chain_refines_wide_buffer(self, env):
        chain = buffer_chain_module(env, 2)
        wide = single_node_module(env, buffer(slots=2))
        assert refines(chain, wide, uniform_stimuli(chain, (0, 1)))

    def test_wide_buffer_does_not_refine_chain(self, env):
        # Definition 4.1 forbids internal steps *before* an input: after the
        # chain's tail buffer emits, the pending token sitting in the head
        # buffer blocks immediate acceptance, so the chain cannot match a
        # 2-slot buffer that accepts two tokens back to back.  This is the
        # asymmetry the paper introduces to make the connect combinator
        # sound, observed on a concrete instance.
        chain = buffer_chain_module(env, 2)
        wide = single_node_module(env, buffer(slots=2))
        assert not refines(wide, chain, uniform_stimuli(wide, (0, 1)))


class TestFunctionalMismatch:
    def test_different_functions_do_not_refine(self, env):
        incr = single_node_module(env, pure("incr"))
        ident = single_node_module(env, pure("id"))
        result = find_weak_simulation(incr, ident, uniform_stimuli(incr, (0, 1)))
        assert not result.holds
        # The root cause is the output mismatch; depending on removal order
        # the violation surfaced at the initial pair may be the input step
        # that leads into the mismatching state.
        assert result.violation.kind in ("input", "output")

    def test_same_function_refines(self, env):
        a = single_node_module(env, pure("incr"))
        b = single_node_module(env, pure("incr"))
        assert refines(a, b, uniform_stimuli(a, (0, 1)))


class TestNondeterminism:
    def test_fifo_refines_merge_on_one_side(self, env):
        """A Merge that only ever receives tokens on one side acts like a
        queue; restricting the environment makes the refinement hold."""
        m = single_node_module(env, merge())
        stimuli = {IOPort(0): (1,), IOPort(1): ()}
        assert refines(m, m, stimuli)

    def test_merge_is_not_a_deterministic_left_merge(self, env):
        """The nondeterministic Merge does NOT refine a left-priority
        merge built from the same interface."""
        from repro.core.module import Module, io_module, enq, deq

        def in_side(index):
            def fire(state, value):
                queues = list(state)
                nxt = enq(queues[index], value, 2)
                if nxt is not None:
                    queues[index] = nxt
                    yield tuple(queues)

            return fire

        def out0(state):
            left_q, right_q = state
            popped = deq(left_q)
            if popped is not None:
                yield popped[0], (popped[1], right_q)
                return  # left priority: right only drains when left empty
            popped = deq(right_q)
            if popped is not None:
                yield popped[0], (left_q, popped[1])

        from repro.core.types import I32

        left_priority = io_module(
            inputs={IOPort(0): (I32, in_side(0)), IOPort(1): (I32, in_side(1))},
            outputs={IOPort(0): (I32, out0)},
            init=[((), ())],
        )
        nondet = single_node_module(env, merge())
        stimuli = {IOPort(0): ("L",), IOPort(1): ("R",)}
        assert refines(left_priority, nondet, stimuli)
        assert not refines(nondet, left_priority, stimuli)


class TestRefinementImpliesTraceInclusion:
    """The paper proves refinement implies trace inclusion; we check it on
    concrete instances by running both checkers and comparing verdicts."""

    @pytest.mark.parametrize("depth", [3, 4])
    def test_buffer_chain_traces_included(self, env, depth):
        chain = buffer_chain_module(env, 2)
        wide = single_node_module(env, buffer(slots=2))
        stimuli = uniform_stimuli(chain, (0, 1))
        assert refines(chain, wide, stimuli)
        assert trace_inclusion(chain, wide, stimuli, depth) is None

    def test_failed_refinement_has_trace_witness(self, env):
        incr = single_node_module(env, pure("incr"))
        ident = single_node_module(env, pure("id"))
        stimuli = uniform_stimuli(incr, (0,))
        assert not refines(incr, ident, stimuli)
        witness = trace_inclusion(incr, ident, stimuli, 3)
        assert witness is not None
        kinds = [event[0] for event in witness]
        assert kinds == ["in", "out"]


class TestTraceEnumeration:
    def test_empty_trace_always_present(self, env):
        mod = single_node_module(env, buffer())
        assert () in enumerate_traces(mod, uniform_stimuli(mod, (0,)), 2)

    def test_depth_zero_only_empty(self, env):
        mod = single_node_module(env, buffer())
        assert enumerate_traces(mod, uniform_stimuli(mod, (0,)), 0) == frozenset({()})

    def test_buffer_traces_are_fifo(self, env):
        mod = single_node_module(env, buffer(slots=2))
        traces = enumerate_traces(mod, uniform_stimuli(mod, (7, 8)), 4)
        bad = (
            ("in", IOPort(0), 7),
            ("in", IOPort(0), 8),
            ("out", IOPort(0), 8),
        )
        good = (
            ("in", IOPort(0), 7),
            ("in", IOPort(0), 8),
            ("out", IOPort(0), 7),
        )
        assert good in traces
        assert bad not in traces
