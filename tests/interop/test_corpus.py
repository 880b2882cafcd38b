"""Seeded fuzz corpus: determinism, prefix stability, and the bicg story.

The manifest must be a pure function of ``(seed, cases)`` —
byte-identical JSON on re-run — so corpus results can live in the result
cache and CI can diff manifests across machines.
"""

import json

import numpy as np

from repro.components import default_environment
from repro.eval.runner import DATAFLOW_FLOWS
from repro.hls.area import latency_of
from repro.hls.frontend import compile_program
from repro.hls.ir import run_program
from repro.interop.corpus import (
    case_seeds,
    corpus_manifest,
    generate_case,
    generate_program,
    run_fuzz_case,
)
from repro.interop.netlist import dumps_netlist

from ..property.test_sim_backend_equivalence import build, default_placement, run_backend


def _manifest_for(seed, count):
    entries = [run_fuzz_case(case_seed) for case_seed in case_seeds(seed, count)]
    return corpus_manifest(entries, seed=seed)


def test_same_seed_byte_identical_manifest():
    a = _manifest_for(7, 4)
    b = _manifest_for(7, 4)
    assert json.dumps(a, indent=2, sort_keys=True) == json.dumps(b, indent=2, sort_keys=True)


def test_different_seed_different_manifest():
    a = _manifest_for(7, 4)
    b = _manifest_for(8, 4)
    assert a["content_hash"] != b["content_hash"]


def test_case_seeds_are_prefix_stable():
    # extending the corpus never perturbs earlier cases
    assert case_seeds(0, 3) == case_seeds(0, 10)[:3]
    assert case_seeds(1, 5) != case_seeds(2, 5)


def test_generate_program_is_deterministic():
    env = default_environment()

    def netlists(seed):
        compiled = compile_program(generate_program(seed), env)
        return [dumps_netlist(ck.graph, name=ck.kernel.name) for ck in compiled.kernels]

    assert netlists(1234) == netlists(1234)


def test_cases_pass_and_effectful_loops_are_refused():
    # Scan a fixed window of seeds: every case must pass, and at least one
    # must exercise the effectful path where GRAPHITI refuses the loop
    # (the paper's bicg refusal) while DF-OoO is allowed to diverge.
    effectful = 0
    for case_seed in case_seeds(0, 6):
        entry = run_fuzz_case(case_seed)
        assert entry["ok"], entry["failures"]
        assert entry["round_trip"] == {"json": True, "verilog": True}
        if entry["effectful"]:
            effectful += 1
            assert entry["flows"]["GRAPHITI"]["refused_loops"] == 1, entry
        else:
            assert entry["flows"]["GRAPHITI"]["refused_loops"] == 0, entry
            assert not entry["ooo_divergence"], entry
    assert effectful >= 1


def test_manifest_shape_and_ok_rollup():
    manifest = _manifest_for(3, 3)
    assert manifest["format"] == "graphiti-corpus"
    assert manifest["version"] == 1
    assert manifest["seed"] == 3
    assert "backend" not in manifest
    assert manifest["count"] == 3
    assert len(manifest["cases"]) == 3
    assert manifest["ok"] == all(entry["ok"] for entry in manifest["cases"])
    assert manifest["ooo_divergences"] == sum(
        1 for entry in manifest["cases"] if entry["ooo_divergence"]
    )
    assert len(manifest["content_hash"]) == 64


def test_interp_backend_agrees_on_a_pure_case():
    # find a pure case and check the interpreter oracle, run on each flow's
    # circuits, reproduces the case's cycle counts and the reference arrays
    for case_seed in case_seeds(0, 8):
        case = generate_case(case_seed)
        if case.effectful:
            continue
        entry = run_fuzz_case(case_seed)
        assert entry["ok"], entry["failures"]
        assert not entry["ooo_divergence"]
        reference = run_program(generate_program(case_seed))
        for flow in DATAFLOW_FLOWS:
            program, env, units = build(lambda: generate_program(case_seed), flow)
            observations, arrays = run_backend(
                program, env, units, default_placement, "interp",
                program.copy_arrays(), latency_of,
            )
            cycles = sum(observation[0] for observation in observations)
            assert cycles == entry["flows"][flow]["cycles"], flow
            for key, expected in reference.arrays.items():
                assert np.allclose(arrays[key], expected, atol=1e-6), (flow, key)
        return
    raise AssertionError("no pure case in the first 8 seeds")
