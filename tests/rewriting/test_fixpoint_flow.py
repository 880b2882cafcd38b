"""The five-phase fixpoint pipeline is the only transform path.

Pins what that path produces on the six paper kernels — the exact output
circuit, its step counts and its wire form, also when one pipeline is
reused — and checks that removed knobs (the saturation explorer's
``strategy``, ``budget`` and ``--pareto``, the worklist fixpoint's
``use_worklist``, and the inline obligation check's ``check_obligations``
and ``cache``) are rejected at every surface instead of being silently
ignored.
"""

import hashlib

import pytest

from repro.api import Session
from repro.benchmarks import BENCHMARKS, load_benchmark
from repro.cli import main
from repro.components import default_environment
from repro.dot import print_dot
from repro.hls.frontend import compile_program
from repro.obs.core import Tracer, scoped_tracer
from repro.rewriting.engine import RewriteEngine
from repro.rewriting.pipeline import GraphitiPipeline, TransformResult
from repro.service.ops import canonical_params

#: kernel -> (transformed, rewrites_applied, composition_steps,
#: verified_applications, output nodes, sha256 of the output's dot text).
#: Recorded from the pipeline as it stood when the saturate strategy was
#: deleted; any change here is a change in what the paper flow emits.
PINNED = {
    "bicg": (False, 0, 0, 0, 48, "7a3291d7c86ac44f748e27f9dff122f6ade963ac12cc942918ec8cef26fbb18d"),
    "gemm": (True, 18, 2261, 11, 43, "dd063c6650bd2e09650030e9a0b19057e8f4e5a6725b6deb03d0046751cc0e21"),
    "gsum-many": (True, 12, 2162, 7, 56, "fade05893ed25697c6bf6668fca16b12436ec34a24c58c81cddd1773f31f2cc5"),
    "gsum-single": (True, 9, 2112, 5, 44, "43092d8745793e72ff11615767ef666a9906c9ed99498024a5cf3ba1024549b0"),
    "matvec": (True, 12, 1071, 7, 29, "03b7cd72a422ce485e5ee423276233ac8c0e0117192b5f571c904ed996c98837"),
    "mvt": (True, 12, 1071, 7, 29, "a8f5ea019cdc54c17a03986b062ecf86a7479b3f32fcb806a21d2893ed85373b"),
}

_CLOSE = ["purify-body", "ooo-loop", "expand-body"]


def _steering(n):
    return ["mux-combine"] * n + ["branch-combine"] * n + ["split-join-elim"] * n + _CLOSE


#: kernel -> (rewrite names of ``engine.log`` in order, sha256 of every
#: application's rewrite, matched nodes and new nodes).  Recorded from the
#: pipeline as it stood before the dirty-region worklist was deleted; the
#: one remaining fixpoint loop must apply the same rewrites at the same
#: places.
PINNED_SEQUENCES = {
    "bicg": ([], "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "gemm": (_steering(5), "942ebb0d359f3b940a1983b1b37de03a856f8729bacddb5c27153e1fd0372217"),
    "gsum-many": (_steering(3), "ad617cf9f460ea8a7666a3808146820ef22a4158768e27776b4e370ebde55d4f"),
    "gsum-single": (_steering(2), "67c038bec5de4dc7609de2fe45d87f079f134b24b259ee46721125809b655fca"),
    "matvec": (_steering(3), "68f22a8ae96cabd256cb9b06654ff9e7f1138137847aa9a105eea3d77c1309e3"),
    "mvt": (_steering(3), "69d1f5eb37cd551f2d7e12468ea7a4536227e90947ff44f58050b5b9433b8b0e"),
}

#: Wire keys that only the saturate strategy wrote (schema 1).
SATURATE_KEYS = ("strategy", "pareto", "best_cost", "fixpoint_cost", "saturation")


def compile_kernel(name):
    env = default_environment()
    return env, compile_program(load_benchmark(name), env).kernels[0]


def transform(name) -> TransformResult:
    env, ck = compile_kernel(name)
    return GraphitiPipeline(env).transform_kernel(ck.graph, ck.mark)


@pytest.fixture(scope="module")
def results():
    return {name: transform(name) for name in sorted(BENCHMARKS)}


def test_pins_cover_every_benchmark():
    assert sorted(PINNED) == sorted(PINNED_SEQUENCES) == sorted(BENCHMARKS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_circuit_is_pinned(results, name):
    result = results[name]
    digest = hashlib.sha256(print_dot(result.graph).encode()).hexdigest()
    assert (
        result.transformed,
        result.rewrites_applied,
        result.composition_steps,
        result.verified_applications,
        len(result.graph.nodes),
        digest,
    ) == PINNED[name]


@pytest.mark.parametrize("name", sorted(PINNED_SEQUENCES))
def test_applied_sequence_is_pinned(name):
    env, ck = compile_kernel(name)
    pipeline = GraphitiPipeline(env)
    pipeline.transform_kernel(ck.graph, ck.mark)
    log = pipeline.engine.log
    text = "".join(
        f"{a.rewrite} {sorted(a.matched_nodes)} {sorted(a.new_nodes)}\n" for a in log
    )
    assert (
        [a.rewrite for a in log],
        hashlib.sha256(text.encode()).hexdigest(),
    ) == PINNED_SEQUENCES[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_independent_runs_are_identical(results, name):
    """A fresh environment, compile and pipeline emit the same bytes."""
    assert transform(name).to_dict() == results[name].to_dict()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_reused_pipeline_repeats_its_result(name):
    """A second transform on the same pipeline counts only its own steps."""
    env, ck = compile_kernel(name)
    pipeline = GraphitiPipeline(env)
    first = pipeline.transform_kernel(ck.graph, ck.mark).to_dict()
    assert pipeline.transform_kernel(ck.graph, ck.mark).to_dict() == first


@pytest.mark.parametrize("name", sorted(PINNED))
def test_wire_round_trip_rebuilds_the_circuit(results, name):
    result = results[name]
    data = result.to_dict()
    assert not set(SATURATE_KEYS) & set(data)
    back = TransformResult.from_dict(data)
    assert print_dot(back.graph) == print_dot(result.graph)
    assert (back.transformed, back.refusal, back.total_steps) == (
        result.transformed,
        result.refusal,
        result.total_steps,
    )
    assert back.to_dict() == data


def test_bicg_refusal_returns_the_input_untouched():
    env, ck = compile_kernel("bicg")
    with scoped_tracer(Tracer()) as tracer:
        result = GraphitiPipeline(env).transform_kernel(ck.graph, ck.mark)
    assert not result.transformed
    assert "stores" in result.refusal
    assert print_dot(result.graph) == print_dot(ck.graph)
    assert result.summary() == f"refused: {result.refusal}"
    assert tracer.counters.get("pipeline.refusals") == 1
    assert "pipeline.transforms" not in tracer.counters


@pytest.mark.parametrize(
    "knob", ["strategy", "budget", "use_worklist", "check_types", "check_obligations", "cache"]
)
def test_pipeline_has_no_removed_knob(knob):
    with pytest.raises(TypeError, match=knob):
        GraphitiPipeline(default_environment(), **{knob: None})


@pytest.mark.parametrize("knob", ["check_obligations", "cache"])
def test_engine_has_no_obligation_knob(knob):
    with pytest.raises(TypeError, match=knob):
        RewriteEngine(**{knob: None})
    assert not hasattr(RewriteEngine(), "verify_rewrite")


def test_session_has_no_obligation_knob():
    # Session.check_obligations() (or ``repro refine``) is the one driver.
    with pytest.raises(TypeError, match="check_obligations"):
        Session(use_cache=False, check_obligations=True)


@pytest.mark.parametrize("knob", ["strategy", "budget"])
def test_session_transform_rejects_saturation_knob(knob):
    session = Session(use_cache=False)
    ck = compile_program(load_benchmark("matvec"), session.env).kernels[0]
    with pytest.raises(TypeError, match=knob):
        session.transform(graph=ck.graph, mark=ck.mark, **{knob: "fixpoint"})


def test_session_metrics_carry_no_saturation_section():
    session = Session(use_cache=False)
    ck = compile_program(load_benchmark("matvec"), session.env).kernels[0]
    with scoped_tracer(Tracer()):
        result = session.transform(graph=ck.graph, mark=ck.mark)
        snapshot = session.metrics()
    assert result.transformed
    assert snapshot.counters.get("pipeline.transforms") == 1
    assert not any(key.startswith("saturation") for key in snapshot.counters)
    assert "saturation" not in snapshot.to_dict()
    assert "saturation" not in snapshot.summary()
    assert type(snapshot).from_dict(snapshot.to_dict()) == snapshot


def test_cli_transform_rejects_pareto_flag(tmp_path, capsys):
    dot = tmp_path / "x.dot"
    dot.write_text("digraph {}")
    with pytest.raises(SystemExit) as exc:
        main(
            ["transform", str(dot), "--mux", "m", "--branch", "b",
             "--init", "i", "--cond-fork", "cf", "--pareto"]
        )
    assert exc.value.code == 2
    assert "unrecognized arguments: --pareto" in capsys.readouterr().err


def test_service_transform_job_key_has_no_strategy():
    assert canonical_params("transform", {"kernel": "matvec"}) == {"kernel": "matvec"}
