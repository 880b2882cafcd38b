"""Property: the compiled engine is cycle- and value-identical to the
interpreter.

The compiled engine (:mod:`repro.sim.compiled`) is the only simulator
production code runs, and it is only admissible because it is
observationally indistinguishable from the reference interpreter
(:class:`repro.sim.cycle.CycleSimulator`), which these tests construct
directly.  They pin that claim on every built-in kernel in
:mod:`repro.benchmarks.kernels` and on seeded fuzz-corpus programs, across
all three dataflow flows, under randomized buffer placements and custom
operator latencies: identical ``SimStats`` (cycle count, tokens fired,
per-channel occupancy peaks, store history) and bit-identical computed
arrays.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks import bicg, gemm, gsum_many, gsum_single, matvec, mvt
from repro.components import default_environment
from repro.eval.runner import DATAFLOW_FLOWS, flow_graph
from repro.hls.area import latency_of
from repro.hls.buffers import place_buffers
from repro.hls.frontend import compile_program
from repro.interop.corpus import generate_program
from repro.sim.cycle import CycleSimulator
from repro.sim.dispatch import simulate_graph

#: every built-in kernel, at property-test sizes.
KERNELS = {
    "matvec": lambda: matvec(4),
    "mvt": lambda: mvt(3),
    "bicg": lambda: bicg(3),
    "gemm": lambda: gemm(3),
    "gsum-single": lambda: gsum_single(16),
    "gsum-many": lambda: gsum_many(2, 8),
}

#: a fuzz-corpus program with ``sequential_outer`` and three outer
#: instances: each instance waits for the previous result, which only
#: reaches the Driver through the Collector's wake.
SEQUENTIAL_SEED = 9


def build(make_program, flow):
    """(program, env, [(kernel, graph, tags)]) for one program x flow."""
    program = make_program()
    env = default_environment()
    compiled = compile_program(program, env)
    units = []
    for ck in compiled.kernels:
        graph, tags, _ = flow_graph(ck, flow, env)
        units.append((ck, graph, tags))
    return program, env, units


def interpret(graph, env, kernel, arrays, **options):
    """One run of the reference interpreter, the compiled engine's oracle."""
    return CycleSimulator(graph, env, kernel, arrays, **options).run()


#: engine name -> a ``simulate_graph``-shaped function.
ENGINES = {"compiled": simulate_graph, "interp": interpret}


def observe(stats):
    """Everything an engine exposes about one run, in comparable form."""
    return (
        stats.cycles,
        stats.tokens_fired,
        stats.results_collected,
        stats.peak_in_flight,
        stats.channel_peaks,
        [(a, int(i), float(v)) for a, i, v in stats.store_history],
    )


def run_backend(program, env, units, capacities_of, engine, pristine, latency):
    for key, value in pristine.items():
        program.arrays[key][...] = value
    observations = []
    for ck, graph, tags in units:
        stats = ENGINES[engine](
            graph,
            env,
            ck.kernel,
            program.arrays,
            capacities=capacities_of(graph, tags),
            latency_of=latency,
        )
        observations.append(observe(stats))
    return observations, {k: v.copy() for k, v in program.arrays.items()}


def assert_backends_agree(make_program, flow, capacities_of, latency=latency_of):
    program, env, units = build(make_program, flow)
    label = f"{program.name}/{flow}"
    pristine = {k: v.copy() for k, v in program.arrays.items()}
    compiled_obs, compiled_arrays = run_backend(
        program, env, units, capacities_of, "compiled", pristine, latency
    )
    interp_obs, interp_arrays = run_backend(
        program, env, units, capacities_of, "interp", pristine, latency
    )
    assert compiled_obs == interp_obs, f"{label}: SimStats diverge"
    for key in interp_arrays:
        assert np.array_equal(compiled_arrays[key], interp_arrays[key]), (
            f"{label}: array {key!r} diverges"
        )
    return compiled_obs


def default_placement(graph, tags):
    return place_buffers(graph, tags).capacities


class TestEveryKernelEveryTransform:
    """Exhaustive sweep under the production buffer placement."""

    @pytest.mark.parametrize("flow", DATAFLOW_FLOWS)
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_backends_identical(self, name, flow):
        assert_backends_agree(KERNELS[name], flow, default_placement)


class TestRandomizedPlacements:
    """Equivalence is placement-independent, not an artifact of one sizing."""

    @given(
        name=st.sampled_from(sorted(KERNELS)),
        flow=st.sampled_from(DATAFLOW_FLOWS),
        seed=st.integers(0, 2**16),
    )
    @settings(deadline=None)  # example count from the HYPOTHESIS_PROFILE
    def test_backends_identical_under_jittered_capacities(
        self, name, flow, seed
    ):
        def jittered(graph, tags):
            # Widen each placed buffer by a seeded random amount; widening
            # never deadlocks, so every drawn placement runs to completion
            # and the full SimStats comparison stays meaningful.
            rng = random.Random(seed)
            return {
                edge: cap + rng.randint(0, 3)
                for edge, cap in place_buffers(graph, tags).capacities.items()
            }

        assert_backends_agree(KERNELS[name], flow, jittered)


class TestFuzzCorpusPrograms:
    """Equivalence on the seeded loop nests of :mod:`repro.interop.corpus`."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        flow=st.sampled_from(DATAFLOW_FLOWS),
    )
    @settings(deadline=None)  # example count from the HYPOTHESIS_PROFILE
    def test_backends_identical_on_corpus_programs(self, seed, flow):
        assert_backends_agree(
            lambda: generate_program(seed), flow, default_placement
        )

    @pytest.mark.parametrize("flow", DATAFLOW_FLOWS)
    def test_sequential_outer_with_several_instances(self, flow):
        program = generate_program(SEQUENTIAL_SEED)
        [kernel] = program.kernels
        assert kernel.sequential_outer and kernel.outer[0].count > 1
        [(_, _, results, *_)] = assert_backends_agree(
            lambda: generate_program(SEQUENTIAL_SEED), flow, default_placement
        )
        assert results == kernel.outer[0].count


class TestOperatorLatencies:
    """Pipeline deadlines: an entry started at cycle t with latency L is
    ready at ``t + max(1, L-1)`` (``t + 1`` for a blocked combinational
    one) — the interpreter's per-cycle countdown, for every latency class."""

    @pytest.mark.parametrize("flow", DATAFLOW_FLOWS)
    @pytest.mark.parametrize("latency", [0, 1, 2, 7])
    def test_backends_identical_under_custom_operator_latency(
        self, latency, flow
    ):
        def custom(typ, params):
            return latency if typ == "Operator" else latency_of(typ, params)

        assert_backends_agree(
            KERNELS["matvec"], flow, default_placement, latency=custom
        )
