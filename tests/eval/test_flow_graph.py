"""``flow_graph`` is the one place a dataflow flow's circuit is built.

Pins the circuit each of DF-IO, DF-OoO and GRAPHITI simulates on every
paper kernel — node count, ``graph_fingerprint`` and the tag budget buffer
placement widens tagged channels for — so the runner, ``repro sim`` /
``repro export``, the service's ``simulate`` job and the ablations, which
all call it, keep simulating exactly the circuits they did when each had
its own copy of the flow ladder.
"""

import pytest

from repro.benchmarks import BENCHMARKS, load_benchmark
from repro.components import default_environment
from repro.eval.runner import DATAFLOW_FLOWS, FLOWS, flow_graph
from repro.exec.hashing import graph_fingerprint
from repro.hls.frontend import compile_program
from repro.rewriting.pipeline import TransformResult

#: (kernel, flow) -> one (nodes, graph_fingerprint, tags) per compiled
#: kernel of the program.  Recorded from the per-flow ladders that
#: ``flow_graph`` replaced; bicg's GRAPHITI circuit is its DF-IO one (the
#: pipeline refuses the effectful loop).
PINNED = {
    ("bicg", "DF-IO"): ((48, "9d32cff5704f4cc52a78df76cd37f1e6ad53c8c65ed422ea365409b4f76cbddd", None),),
    ("bicg", "DF-OoO"): ((43, "b86d899cdc500818fbe8704a87e05ead727e38420ab9211fc3c877a2786591c7", 8),),
    ("bicg", "GRAPHITI"): ((48, "9d32cff5704f4cc52a78df76cd37f1e6ad53c8c65ed422ea365409b4f76cbddd", None),),
    ("gemm", "DF-IO"): ((44, "253a31052fcaba6e3bae90973c69e36e75d18be23abe52efb4b901807de865e1", None),),
    ("gemm", "DF-OoO"): ((38, "5461c952f857603024a6458e04f498ef8b8c386d33b18762104251040e4b1d0f", 32),),
    ("gemm", "GRAPHITI"): ((43, "ae4ce0860324bd0b03db5a768f404a0a245ceadfb4f642dce31eb4cdcf79063c", 32),),
    ("gsum-many", "DF-IO"): ((57, "bbb70a22ee70265a4462a3a4c4ce505647684046b9f1f43efe5d239fe1fae33e", None),),
    ("gsum-many", "DF-OoO"): ((53, "74ca749e6182a74365463fd74d58a65bd6ba35fb272ad6d438627e14ba92e1be", 6),),
    ("gsum-many", "GRAPHITI"): ((56, "c699de987001e367f274750ae6631110aeffcc912dc951cf512a1f9ffc463cba", 6),),
    ("gsum-single", "DF-IO"): ((45, "d2d177879c098a0fd05e08c557a3916a39f8cb5f70198a0efefcb7c08b46748f", None),),
    ("gsum-single", "DF-OoO"): ((42, "c1b42a93c40a6d548de878fb98823a333fce9874942c3c4fb6372d2fc6e0b0fb", 2),),
    ("gsum-single", "GRAPHITI"): ((44, "a48383103c025c849ce551fb84bc1eb6723bdd4a529fbff27c1b91f0522dd458", 2),),
    ("matvec", "DF-IO"): ((30, "08cf33c1e4353d9269a9ff634b096a3030633704e05fb2b58b9c1fd4c3c77681", None),),
    ("matvec", "DF-OoO"): ((26, "d5ffdbbb3e93afcfcc4111da55f19e65ba34a933abfa226dc1bd8e486a97043b", 50),),
    ("matvec", "GRAPHITI"): ((29, "facd45f3713f9e8d5487bfbf86881e62c039cc1b1b21fbd5fa8f697314e8e4fd", 50),),
    ("mvt", "DF-IO"): (
        (30, "077d4819af3b38bed356d1bd02f3323a7aac75ace5ebc786c6386b0ed3234194", None),
        (30, "8c767dfe4770945a59ace1f219c5f597d6b56938ac56f82d440edfad57553f9b", None),
    ),
    ("mvt", "DF-OoO"): (
        (26, "b7a99761442cfff1a384e6248f12407d96e303aa8ee6576999f535dc3c336010", 6),
        (26, "38fc6835d0a676f7e709f3c70b829c50590a79f0ef803bab7b182bcfc15f613b", 6),
    ),
    ("mvt", "GRAPHITI"): (
        (29, "aa2a49fef6d326524f486ac9a64c0dbf8ad46f93f2c81fd451fe1bcf6e293c79", 6),
        (29, "6c453c2b7cab9a78448b84120818a54aa98a075f9317f70465a077e26cecc0bd", 6),
    ),
}


def compile_benchmark(name):
    env = default_environment()
    return env, compile_program(load_benchmark(name), env)


def test_pins_cover_every_benchmark_and_flow():
    assert set(PINNED) == {(name, flow) for name in BENCHMARKS for flow in DATAFLOW_FLOWS}
    assert FLOWS == DATAFLOW_FLOWS + ("Vericert",)


@pytest.mark.parametrize(("name", "flow"), sorted(PINNED))
def test_flow_graph_is_pinned(name, flow):
    env, compiled = compile_benchmark(name)
    got = []
    for ck in compiled.kernels:
        graph, tags, _ = flow_graph(ck, flow, env)
        got.append((len(graph.nodes), graph_fingerprint(graph), tags))
    assert tuple(got) == PINNED[name, flow]


def test_outcome_is_the_pipeline_result_for_graphiti_only():
    env, compiled = compile_benchmark("matvec")
    [ck] = compiled.kernels
    assert flow_graph(ck, "DF-IO", env)[2] is None
    assert flow_graph(ck, "DF-OoO", env)[2] is None
    graph, tags, outcome = flow_graph(ck, "GRAPHITI", env)
    assert isinstance(outcome, TransformResult) and outcome.transformed
    assert graph is outcome.graph and tags == ck.mark.tags


def test_refused_graphiti_returns_the_input_circuit_untagged():
    env, compiled = compile_benchmark("bicg")
    [ck] = compiled.kernels
    graph, tags, outcome = flow_graph(ck, "GRAPHITI", env)
    assert not outcome.transformed and outcome.refusal
    assert graph is outcome.graph is ck.graph
    assert tags is None


@pytest.mark.parametrize("flow", ["Vericert", "bogus"])
def test_non_dataflow_flow_rejected(flow):
    env, compiled = compile_benchmark("matvec")
    with pytest.raises(ValueError, match="unknown dataflow flow"):
        flow_graph(compiled.kernels[0], flow, env)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_flows_leave_the_shared_compiled_program_unchanged(name):
    """Every flow of one evaluation reads the same ``CompiledProgram``, so
    deriving the DF-OoO and GRAPHITI circuits must not touch its graphs."""
    env, compiled = compile_benchmark(name)
    for ck in compiled.kernels:
        flow_graph(ck, "DF-OoO", env)
        flow_graph(ck, "GRAPHITI", env)
    _, fresh = compile_benchmark(name)
    assert [graph_fingerprint(ck.graph) for ck in compiled.kernels] == [
        graph_fingerprint(ck.graph) for ck in fresh.kernels
    ]
