"""Tests for the graph-compiled simulation engine (repro.sim.compiled)."""

from itertools import compress

import numpy as np
import pytest

from repro import obs
from repro.components import default_environment, join
from repro.errors import DeadlockError, SimulationError
from repro.eval.runner import DATAFLOW_FLOWS, flow_graph, simulate_flow
from repro.hls.area import latency_of
from repro.hls.buffers import place_buffers
from repro.hls.frontend import compile_program
from repro.hls.ooo import transform_out_of_order
from repro.sim.compiled import BatchRun, CompiledCircuit, compile_circuit
from repro.sim.cycle import CycleSimulator
from repro.sim.dispatch import simulate_graph
from repro.sim.trace import FiringTrace

from ..property.test_sim_backend_equivalence import KERNELS, build, default_placement
from .test_cycle import countdown_program


def compile_countdown(transform=None, n_points=4):
    """(program, env, ck, graph, capacities) for the countdown benchmark."""
    program = countdown_program(n_points)
    env = default_environment()
    compiled = compile_program(program, env)
    ck = compiled.kernels[0]
    if transform == "ooo":
        graph, tags = transform_out_of_order(ck.graph, ck.mark), ck.mark.tags
    else:
        graph, tags = ck.graph, None
    return program, env, ck, graph, place_buffers(graph, tags).capacities


def stats_tuple(stats):
    return (
        stats.cycles,
        stats.tokens_fired,
        stats.results_collected,
        stats.peak_in_flight,
        stats.channel_peaks,
        [(a, int(i), float(v)) for a, i, v in stats.store_history],
    )


class TestCompileOnceRunMany:
    def test_repeated_runs_are_identical(self):
        program, env, ck, graph, caps = compile_countdown("ooo")
        pristine = {k: v.copy() for k, v in program.arrays.items()}
        circuit = compile_circuit(
            graph, env, ck.kernel, capacities=caps, latency_of=latency_of
        )
        seen = []
        for _ in range(3):
            for k, v in pristine.items():
                program.arrays[k][...] = v
            stats = circuit.run(program.arrays)
            seen.append((stats_tuple(stats), {k: v.copy() for k, v in program.arrays.items()}))
        first_stats, first_arrays = seen[0]
        assert first_stats[2] == 4  # all outer points collected
        for other_stats, other_arrays in seen[1:]:
            assert other_stats == first_stats
            for key in first_arrays:
                assert np.array_equal(other_arrays[key], first_arrays[key])

    def test_matches_interpreter(self):
        program, env, ck, graph, caps = compile_countdown("ooo")
        pristine = {k: v.copy() for k, v in program.arrays.items()}
        compiled_stats = simulate_graph(
            graph, env, ck.kernel, program.arrays,
            capacities=caps, latency_of=latency_of,
        )
        compiled_out = program.arrays["out"].copy()
        for k, v in pristine.items():
            program.arrays[k][...] = v
        interp_stats = CycleSimulator(
            graph, env, ck.kernel, program.arrays,
            capacities=caps, latency_of=latency_of,
        ).run()
        assert stats_tuple(compiled_stats) == stats_tuple(interp_stats)
        assert np.array_equal(compiled_out, program.arrays["out"])


class TestRunBatch:
    def test_batch_with_per_run_capacities(self):
        program, env, ck, graph, caps = compile_countdown("ooo")
        pristine = {k: v.copy() for k, v in program.arrays.items()}
        narrowed = {edge: 1 for edge in caps}
        circuit = compile_circuit(
            graph, env, ck.kernel, capacities=caps, latency_of=latency_of
        )

        def fresh():
            return {k: v.copy() for k, v in pristine.items()}

        results = circuit.run_batch(
            [
                BatchRun(arrays=fresh()),
                BatchRun(arrays=fresh(), capacities=narrowed),
                BatchRun(arrays=fresh(), capacities=caps),
            ]
        )
        assert len(results) == 3
        # Starving the buffers can only slow the circuit down.
        assert results[1].cycles >= results[0].cycles
        # Returning to the compile-time placement restores the measurement.
        assert stats_tuple(results[2]) == stats_tuple(results[0])

    def test_mapping_configs_are_coerced(self):
        program, env, ck, graph, caps = compile_countdown()
        circuit = compile_circuit(
            graph, env, ck.kernel, capacities=caps, latency_of=latency_of
        )
        arrays = {k: v.copy() for k, v in program.arrays.items()}
        [from_mapping] = circuit.run_batch([{"arrays": arrays}])
        arrays = {k: v.copy() for k, v in program.arrays.items()}
        [from_dataclass] = circuit.run_batch([BatchRun(arrays=arrays)])
        assert stats_tuple(from_mapping) == stats_tuple(from_dataclass)


class TestRetarget:
    def test_retarget_counts_changed_channels(self):
        program, env, ck, graph, caps = compile_countdown("ooo")
        circuit = compile_circuit(
            graph, env, ck.kernel, capacities=caps, latency_of=latency_of
        )
        narrowed = {edge: 1 for edge in caps}
        changed = circuit.retarget(narrowed)
        assert changed == sum(1 for edge, cap in caps.items() if cap != 1)
        # Retargeting to the capacities already in force is a no-op.
        assert circuit.retarget(narrowed) == 0

    def test_retarget_matches_fresh_compile(self):
        program, env, ck, graph, caps = compile_countdown("ooo")
        pristine = {k: v.copy() for k, v in program.arrays.items()}
        narrowed = {edge: 1 for edge in caps}

        circuit = compile_circuit(
            graph, env, ck.kernel, capacities=caps, latency_of=latency_of
        )
        retargeted = circuit.run(
            {k: v.copy() for k, v in pristine.items()}, capacities=narrowed
        )
        fresh = compile_circuit(
            graph, env, ck.kernel, capacities=narrowed, latency_of=latency_of
        ).run({k: v.copy() for k, v in pristine.items()})
        assert stats_tuple(retargeted) == stats_tuple(fresh)


class TestDeadlockParity:
    def make_starved(self):
        # Same construction as TestDeadlockDetection in test_cycle.py: cut
        # the mux_n loop-back and route it through a Join whose second
        # input dangles, so the circuit starves.
        program = countdown_program(2)
        env = default_environment()
        compiled = compile_program(program, env)
        ck = compiled.kernels[0]
        graph = ck.graph.copy()
        src = graph.disconnect("mux_n", "in0")
        graph.add_node("stray", join())
        graph.connect(src.node, src.port, "stray", "in0")
        graph.connect("stray", "out0", "mux_n", "in0")
        return program, env, ck, graph

    def test_both_backends_raise_identical_deadlock(self):
        program, env, ck, graph = self.make_starved()
        pristine = {k: v.copy() for k, v in program.arrays.items()}

        with pytest.raises(DeadlockError) as interp_err:
            CycleSimulator(
                graph, env, ck.kernel, program.arrays, {}, latency_of,
                deadlock_window=200,
            ).run()
        for k, v in pristine.items():
            program.arrays[k][...] = v
        circuit = compile_circuit(graph, env, ck.kernel, latency_of=latency_of)
        with pytest.raises(DeadlockError) as compiled_err:
            circuit.run(program.arrays, deadlock_window=200)

        assert str(compiled_err.value) == str(interp_err.value)
        assert compiled_err.value.cycle == interp_err.value.cycle


class TestFullChannelDiagnostic:
    def test_overflow_names_the_edge_and_occupancy(self):
        program, env, ck, graph, caps = compile_countdown()
        circuit = compile_circuit(
            graph, env, ck.kernel, capacities=caps, latency_of=latency_of
        )
        ring = circuit._channels[0]
        for _ in range(ring.cap):
            ring.push(0)
        with pytest.raises(SimulationError) as err:
            ring.push(0)
        message = str(err.value)
        assert f"{ring.src} -> {ring.dst}" in message
        assert f"({ring.cap}/{ring.cap} occupied)" in message


def interpret_flow(program, flow, kernel_index):
    """:func:`simulate_flow` on the interpreter: ``(stats, trace)``."""
    env = default_environment()
    ck = compile_program(program, env).kernels[kernel_index]
    graph, tags, _ = flow_graph(ck, flow, env)
    trace = FiringTrace()
    stats = CycleSimulator(
        graph, env, ck.kernel, program.arrays,
        capacities=place_buffers(graph, tags).capacities,
        latency_of=latency_of, trace=trace,
    ).run()
    return stats, trace


class TestFiringTraceParity:
    """The compiled engine records every firing the interpreter does, at
    the same cycle, with the same latency, in the same order."""

    @pytest.mark.parametrize("flow", DATAFLOW_FLOWS)
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_traces_identical(self, name, flow):
        for index in range(len(KERNELS[name]().kernels)):
            c_stats, c_trace, _ = simulate_flow(KERNELS[name](), flow, index)
            i_stats, i_trace = interpret_flow(KERNELS[name](), flow, index)
            assert c_trace.events, f"{name}/{flow}/{index}: empty trace"
            assert c_trace.events == i_trace.events, f"{name}/{flow}/{index}"
            assert stats_tuple(c_stats) == stats_tuple(i_stats)


class TestStepsCounter:
    def run_counted(self, circuit, pristine):
        with obs.scoped_tracer() as tracer:
            stats = circuit.run({k: v.copy() for k, v in pristine.items()})
        return stats, tracer.counters

    def test_steps_deterministic_and_below_dense_sweep(self):
        program, env, ck, graph, caps = compile_countdown("ooo")
        pristine = {k: v.copy() for k, v in program.arrays.items()}
        circuit = compile_circuit(
            graph, env, ck.kernel, capacities=caps, latency_of=latency_of
        )
        stats, first = self.run_counted(circuit, pristine)
        _, second = self.run_counted(circuit, pristine)
        assert first["sim.runs"] == 1
        assert first["sim.cycles"] == stats.cycles
        assert 0 < first["sim.steps"] == second["sim.steps"]
        # A dense sweep calls every node every cycle; the event-driven
        # scheduler must do strictly less.
        assert first["sim.steps"] < len(graph.nodes) * stats.cycles

    #: ``sim.steps`` (node-step calls) of one compiled run of every unit,
    #: summed over a program's kernels, under the production placement.
    #: SimStats, traces and arrays cannot see a visit that fires nothing,
    #: so these pins are what catches a change in which nodes the
    #: scheduler visits.
    PINNED_STEPS = {
        ("bicg", "DF-IO"): 872,
        ("bicg", "DF-OoO"): 570,
        ("bicg", "GRAPHITI"): 872,
        ("gemm", "DF-IO"): 2445,
        ("gemm", "DF-OoO"): 1090,
        ("gemm", "GRAPHITI"): 1179,
        ("gsum-many", "DF-IO"): 1795,
        ("gsum-many", "DF-OoO"): 1364,
        ("gsum-many", "GRAPHITI"): 1268,
        ("gsum-single", "DF-IO"): 1355,
        ("gsum-single", "DF-OoO"): 1265,
        ("gsum-single", "GRAPHITI"): 1113,
        ("matvec", "DF-IO"): 943,
        ("matvec", "DF-OoO"): 530,
        ("matvec", "GRAPHITI"): 507,
        ("mvt", "DF-IO"): 1068,
        ("mvt", "DF-OoO"): 674,
        ("mvt", "GRAPHITI"): 632,
    }

    def test_pins_cover_every_kernel_and_transform(self):
        assert set(self.PINNED_STEPS) == {
            (name, flow) for name in KERNELS for flow in DATAFLOW_FLOWS
        }

    @pytest.mark.parametrize("flow", DATAFLOW_FLOWS)
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_steps_pinned(self, name, flow):
        program, env, units = build(KERNELS[name], flow)
        with obs.scoped_tracer() as tracer:
            for ck, graph, tags in units:
                simulate_graph(
                    graph, env, ck.kernel, program.arrays,
                    capacities=default_placement(graph, tags),
                    latency_of=latency_of,
                )
        assert tracer.counters["sim.steps"] == self.PINNED_STEPS[name, flow]

    def test_batch_counts_steps_of_every_run(self):
        program, env, ck, graph, caps = compile_countdown("ooo")
        pristine = {k: v.copy() for k, v in program.arrays.items()}
        circuit = compile_circuit(
            graph, env, ck.kernel, capacities=caps, latency_of=latency_of
        )
        _, single = self.run_counted(circuit, pristine)
        with obs.scoped_tracer() as tracer:
            circuit.run_batch(
                [
                    BatchRun(arrays={k: v.copy() for k, v in pristine.items()})
                    for _ in range(2)
                ]
            )
        assert tracer.counters["sim.steps"] == 2 * single["sim.steps"]


class TestSweepOrder:
    """The run loop sweeps awake nodes with ``compress(range(n), flags)``
    over the live flag ``bytearray``; its cycle semantics rest on
    ``compress`` reading each flag only when the cursor reaches it."""

    def test_flag_set_ahead_of_cursor_is_yielded(self):
        flags = bytearray([1, 0, 0, 0])
        seen = []
        for i in compress(range(len(flags)), flags):
            seen.append(i)
            flags[i] = 0
            if i == 0:
                flags[2] = 1
        assert seen == [0, 2]

    def test_flag_set_behind_cursor_is_skipped(self):
        flags = bytearray([0, 0, 1, 0])
        seen = []
        for i in compress(range(len(flags)), flags):
            seen.append(i)
            flags[i] = 0
            flags[0] = 1
        assert seen == [2]
        assert flags == bytearray([1, 0, 0, 0])


class TestDispatch:
    def test_unknown_component_type_rejected_at_compile(self):
        from repro.core import ExprHigh, NodeSpec

        program, env, ck, _, _ = compile_countdown()
        graph = ExprHigh()
        graph.add_node("mystery", NodeSpec("Frobnicator", ("in0",), ("out0",)))
        with pytest.raises(SimulationError, match="no cycle model"):
            CompiledCircuit(graph, env, ck.kernel)
