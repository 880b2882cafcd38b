"""Property: the compiled engine is cycle- and value-identical to the
interpreter.

The compiled backend (:mod:`repro.sim.compiled`) is only admissible as the
default because it is observationally indistinguishable from the reference
interpreter (:mod:`repro.sim.cycle`).  These tests pin that claim on every
built-in kernel in :mod:`repro.benchmarks.kernels` and on seeded fuzz-corpus
programs, across all three dataflow transforms, under randomized buffer
placements and custom operator latencies: identical ``SimStats`` (cycle
count, tokens fired, per-channel occupancy peaks, store history) and
bit-identical computed arrays.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks import bicg, gemm, gsum_many, gsum_single, matvec, mvt
from repro.components import default_environment
from repro.hls.area import latency_of
from repro.hls.buffers import place_buffers
from repro.hls.frontend import compile_program
from repro.hls.ooo import transform_out_of_order
from repro.interop.corpus import generate_program
from repro.rewriting.pipeline import GraphitiPipeline
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

TRANSFORMS = (None, "ooo", "graphiti")

#: a fuzz-corpus program with ``sequential_outer`` and three outer
#: instances: each instance waits for the previous result, which only
#: reaches the Driver through the Collector's wake.
SEQUENTIAL_SEED = 9


def build(make_program, transform):
    """(program, env, [(kernel, graph, tags)]) for one program x transform."""
    program = make_program()
    env = default_environment()
    compiled = compile_program(program, env)
    units = []
    for ck in compiled.kernels:
        if transform == "ooo":
            units.append((ck, transform_out_of_order(ck.graph, ck.mark), ck.mark.tags))
        elif transform == "graphiti":
            outcome = GraphitiPipeline(env).transform_kernel(ck.graph, ck.mark)
            if outcome.transformed:
                units.append((ck, outcome.graph, ck.mark.tags))
            else:  # e.g. bicg: the purity check refuses, in-order fallback
                units.append((ck, ck.graph, None))
        else:
            units.append((ck, ck.graph, None))
    return program, env, units


def observe(stats):
    """Everything a backend exposes about one run, in comparable form."""
    return (
        stats.cycles,
        stats.tokens_fired,
        stats.results_collected,
        stats.peak_in_flight,
        stats.channel_peaks,
        [(a, int(i), float(v)) for a, i, v in stats.store_history],
    )


def run_backend(program, env, units, capacities_of, backend, pristine, latency):
    for key, value in pristine.items():
        program.arrays[key][...] = value
    observations = []
    for ck, graph, tags in units:
        stats = simulate_graph(
            graph,
            env,
            ck.kernel,
            program.arrays,
            capacities=capacities_of(graph, tags),
            latency_of=latency,
            backend=backend,
        )
        observations.append(observe(stats))
    return observations, {k: v.copy() for k, v in program.arrays.items()}


def assert_backends_agree(make_program, transform, capacities_of, latency=latency_of):
    program, env, units = build(make_program, transform)
    label = f"{program.name}/{transform}"
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

    @pytest.mark.parametrize("transform", TRANSFORMS)
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_backends_identical(self, name, transform):
        assert_backends_agree(KERNELS[name], transform, default_placement)


class TestRandomizedPlacements:
    """Equivalence is placement-independent, not an artifact of one sizing."""

    @given(
        name=st.sampled_from(sorted(KERNELS)),
        transform=st.sampled_from(TRANSFORMS),
        seed=st.integers(0, 2**16),
    )
    @settings(deadline=None)  # example count from the HYPOTHESIS_PROFILE
    def test_backends_identical_under_jittered_capacities(
        self, name, transform, seed
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

        assert_backends_agree(KERNELS[name], transform, jittered)


class TestFuzzCorpusPrograms:
    """Equivalence on the seeded loop nests of :mod:`repro.interop.corpus`."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        transform=st.sampled_from(TRANSFORMS),
    )
    @settings(deadline=None)  # example count from the HYPOTHESIS_PROFILE
    def test_backends_identical_on_corpus_programs(self, seed, transform):
        assert_backends_agree(
            lambda: generate_program(seed), transform, default_placement
        )

    @pytest.mark.parametrize("transform", TRANSFORMS)
    def test_sequential_outer_with_several_instances(self, transform):
        program = generate_program(SEQUENTIAL_SEED)
        [kernel] = program.kernels
        assert kernel.sequential_outer and kernel.outer[0].count > 1
        [(_, _, results, *_)] = assert_backends_agree(
            lambda: generate_program(SEQUENTIAL_SEED), transform, default_placement
        )
        assert results == kernel.outer[0].count


class TestOperatorLatencies:
    """Pipeline deadlines: an entry started at cycle t with latency L is
    ready at ``t + max(1, L-1)`` (``t + 1`` for a blocked combinational
    one) — the interpreter's per-cycle countdown, for every latency class."""

    @pytest.mark.parametrize("transform", TRANSFORMS)
    @pytest.mark.parametrize("latency", [0, 1, 2, 7])
    def test_backends_identical_under_custom_operator_latency(
        self, latency, transform
    ):
        def custom(typ, params):
            return latency if typ == "Operator" else latency_of(typ, params)

        assert_backends_agree(
            KERNELS["matvec"], transform, default_placement, latency=custom
        )
