"""End-to-end traces: golden transform trace, pool re-parenting, profile/metrics agreement."""

import json

import numpy as np
import pytest

from repro import obs
from repro.api import Session
from repro.components import default_environment
from repro.hls.frontend import compile_program
from repro.hls.ir import BinOp, DoWhile, Kernel, Load, OuterLoop, Program, StoreOp, UnOp, Var
from repro.obs import InMemorySink, JsonlSink, Tracer, render_tree


def gcd_program() -> Program:
    loop = DoWhile(
        "gcd",
        ("a", "b"),
        {"a": Var("b"), "b": BinOp("mod", Var("a"), Var("b"))},
        UnOp("ne0", Var("b")),
        ("a",),
    )
    kernel = Kernel(
        "gcd",
        loop,
        (OuterLoop("i", 2),),
        {"a": Load("x", Var("i")), "b": Load("y", Var("i"))},
        (StoreOp("out", Var("i"), Var("a")),),
        tags=2,
    )
    return Program(
        "gcd",
        {"x": np.array([12, 9]), "y": np.array([8, 6]), "out": np.zeros(2)},
        [kernel],
    )


@pytest.fixture
def tracer():
    with obs.scoped_tracer(Tracer()) as fresh:
        yield fresh


def transform_under_trace(tracer):
    program = gcd_program()
    ck = compile_program(program, default_environment()).kernels[0]
    session = Session(use_cache=False)
    result = session.transform(graph=ck.graph, mark=ck.mark)
    assert result.transformed
    return session, result


class TestGoldenTransformTrace:
    """The JSONL trace of a small gcd transform has a stable shape."""

    def test_jsonl_trace_structure(self, tracer, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            tracer.attach(sink)
            transform_under_trace(tracer)

        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records, "trace is empty"
        by_id = {r["id"]: r for r in records}
        seen = set()
        for record in records:
            assert set(record) == {"id", "parent", "name", "seconds", "self_seconds", "attrs"}
            assert record["id"] not in seen
            if record["parent"] is not None:
                assert record["parent"] in seen
            seen.add(record["id"])

        # Golden structure: one transform root wrapping the pipeline, whose
        # phases appear exactly once each, in pipeline order.
        roots = [r for r in records if r["parent"] is None]
        assert [r["name"] for r in roots] == ["transform"]
        [pipeline] = [r for r in records if r["name"] == "pipeline:transform"]
        assert pipeline["parent"] == roots[0]["id"]
        phases = [
            r["name"]
            for r in records
            if r["parent"] == pipeline["id"] and r["name"].startswith("phase:")
        ]
        assert phases == [
            "phase:normalize",
            "phase:eliminate",
            "phase:purify",
            "phase:reorder",
            "phase:expand",
        ]
        # The purify phase consulted the e-graph oracle.
        assert any(r["name"] == "purify:oracle" for r in records)
        # Every rewrite the fixpoint loop applied has its match/apply
        # children; ``apply_at`` (scope "at") is handed its match.
        checked = 0
        for record in records:
            attrs = record["attrs"]
            if (
                record["name"].startswith("rewrite:")
                and attrs.get("applied")
                and attrs.get("scope") != "at"
            ):
                children = {r["name"] for r in records if r["parent"] == record["id"]}
                assert {"match", "apply"} <= children
                checked += 1
        assert checked > 0

    def test_profile_totals_agree_with_session_metrics(self, tracer):
        sink = tracer.attach(InMemorySink())
        session, result = transform_under_trace(tracer)
        snapshot = session.metrics()

        applied_spans = {}
        for root in sink.spans:
            for span in root.walk():
                if span.name.startswith("rewrite:") and span.attrs.get("applied"):
                    name = span.name.removeprefix("rewrite:")
                    applied_spans[name] = applied_spans.get(name, 0) + 1
        per_rewrite = {
            name: stats["applied"]
            for name, stats in snapshot.per_rewrite.items()
            if stats["applied"]
        }
        assert applied_spans == per_rewrite
        assert sum(applied_spans.values()) == snapshot.rewrites_applied
        assert snapshot.rewrites_applied == result.rewrites_applied

        # And the rendered profile mentions the pipeline phases.
        text = render_tree(sink.spans)
        assert "phase:purify" in text and "transform" in text


class TestPoolReparenting:
    def test_worker_spans_come_back_reparented(self, tracer, tmp_path):
        sink = tracer.attach(InMemorySink())
        specs = [
            ("repro.rewriting.rules.combine", "mux_combine", {}),
            ("repro.rewriting.rules.reduction", "split_join_elim", {}),
        ]
        session = Session(jobs=2, use_cache=False)
        outcomes = session.check_obligations(specs)
        assert all(outcome["holds"] for outcome in outcomes)

        [root] = [r for r in sink.spans if r.name == "check-obligations"]
        grafted = [
            span
            for span in root.walk()
            if span.attrs.get("reparented") and span.name.startswith("unit:obligation:")
        ]
        # Both units ran in pool workers and shipped their subtrees back.
        assert {span.name for span in grafted} == {
            "unit:obligation:mux_combine",
            "unit:obligation:split_join_elim",
        }
        for span in grafted:
            assert span.attrs.get("mode") == "pool"
            inner = [s.name for s in span.walk()]
            assert any(name.startswith("obligation:") for name in inner)
            assert "refine:weak-sim" in inner

    def test_trace_file_includes_reparented_worker_spans(self, tracer, tmp_path):
        path = tmp_path / "obligations.jsonl"
        with JsonlSink(path) as sink:
            tracer.attach(sink)
            session = Session(jobs=2, use_cache=False)
            session.check_obligations(
                [
                    ("repro.rewriting.rules.combine", "mux_combine", {}),
                    ("repro.rewriting.rules.reduction", "split_join_elim", {}),
                ]
            )
        records = [json.loads(line) for line in path.read_text().splitlines()]
        reparented = [r for r in records if r["attrs"].get("reparented")]
        assert reparented, "no re-parented worker spans in the trace"
        assert all(r["parent"] is not None for r in reparented)
