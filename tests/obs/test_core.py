"""The tracing core: spans, the tracer, counters, grafting, sinks."""

import json

import pytest

from repro import Session, obs
from repro.obs import InMemorySink, JsonlSink, MetricsSnapshot, Span, Tracer, render_tree


@pytest.fixture
def tracer():
    """A fresh tracer, active in the test's context for its duration."""
    with obs.scoped_tracer(Tracer()) as fresh:
        yield fresh


class TestSpanBasics:
    def test_noop_span_without_sink(self, tracer):
        span = obs.span("anything")
        assert span is obs.span("other")  # the shared no-op instance
        with span as sp:
            assert sp.set(x=1) is sp
            assert sp.seconds == 0.0

    def test_root_span_emitted_to_sink(self, tracer):
        sink = tracer.attach(InMemorySink())
        with obs.span("root", key="value") as sp:
            pass
        assert [span.name for span in sink.spans] == ["root"]
        assert sink.spans[0].attrs == {"key": "value"}
        assert sp.closed and sp.seconds >= 0.0

    def test_nesting_builds_a_tree(self, tracer):
        sink = tracer.attach(InMemorySink())
        with obs.span("a"):
            with obs.span("b"):
                with obs.span("c"):
                    pass
            with obs.span("d"):
                pass
        [root] = sink.spans
        assert [span.name for span in root.walk()] == ["a", "b", "c", "d"]
        assert [child.name for child in root.children] == ["b", "d"]

    def test_exception_recorded_and_propagated(self, tracer):
        sink = tracer.attach(InMemorySink())
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("no")
        [root] = sink.spans
        assert root.attrs["error"] == "ValueError"
        assert root.closed

    def test_self_seconds_excludes_children(self, tracer):
        sink = tracer.attach(InMemorySink())
        with obs.span("parent"):
            with obs.span("child"):
                sum(range(1000))
        [root] = sink.spans
        child = root.children[0]
        assert root.seconds >= child.seconds
        assert abs(root.self_seconds - (root.seconds - child.seconds)) < 1e-9

    def test_to_dict_from_dict_roundtrip(self, tracer):
        sink = tracer.attach(InMemorySink())
        with obs.span("outer", n=2):
            with obs.span("inner"):
                pass
        [root] = sink.spans
        rebuilt = Span.from_dict(root.to_dict())
        assert [s.name for s in rebuilt.walk()] == [s.name for s in root.walk()]
        assert rebuilt.attrs == root.attrs
        assert rebuilt.seconds == pytest.approx(root.seconds)


class TestCounters:
    def test_counters_work_without_sinks(self, tracer):
        obs.count("x")
        obs.count("x", 2)
        obs.count("t.seconds", 0.5)
        assert tracer.counters == {"x": 3, "t.seconds": 0.5}

    def test_reset_clears_counters(self, tracer):
        obs.count("x")
        tracer.reset()
        assert tracer.counters == {}

    def test_merge_adds_counters(self, tracer):
        obs.count("x")
        tracer.merge({"x": 2, "y": 1})
        assert tracer.counters == {"x": 3, "y": 1}

    def test_gauges_are_gone(self, tracer):
        assert not hasattr(obs, "gauge") and not hasattr(tracer, "gauge")
        assert not hasattr(obs, "use_tracer") and not hasattr(obs, "set_tracer")


class TestCountingScope:
    def test_counts_are_own_and_added_to_the_enclosing_tracer(self, tracer):
        own = Tracer()
        obs.count("outside")
        with obs.counting_scope(own):
            obs.count("inside", 2)
            with obs.counting_scope(own):  # re-entered: counted once
                obs.count("inside")
        assert own.counters == {"inside": 3}
        assert tracer.counters == {"outside": 1, "inside": 3}
        with obs.counting_scope(own):
            obs.count("inside")
        assert own.counters == {"inside": 4}
        assert tracer.counters == {"outside": 1, "inside": 4}

    def test_spans_nest_into_the_enclosing_trace(self, tracer):
        sink = tracer.attach(InMemorySink())
        with obs.span("outer"):
            with obs.counting_scope(Tracer()):
                with obs.span("inner"):
                    pass
        [root] = sink.spans
        assert [span.name for span in root.walk()] == ["outer", "inner"]


class TestGraft:
    def test_graft_reparents_under_open_span(self, tracer):
        sink = tracer.attach(InMemorySink())
        worker = {
            "name": "unit:w",
            "seconds": 0.25,
            "attrs": {"mode": "pool"},
            "children": [{"name": "flow:GRAPHITI", "seconds": 0.2}],
        }
        with obs.span("batch"):
            grafted = tracer.graft(worker, uid="w")
        [root] = sink.spans
        assert grafted in root.children
        assert grafted.attrs["reparented"] is True
        assert grafted.attrs["uid"] == "w"
        assert grafted.seconds == pytest.approx(0.25)
        assert grafted.children[0].name == "flow:GRAPHITI"

    def test_graft_without_open_span_emits_as_root(self, tracer):
        sink = tracer.attach(InMemorySink())
        tracer.graft({"name": "orphan", "seconds": 0.1})
        assert [span.name for span in sink.spans] == ["orphan"]

    def test_graft_inactive_returns_none(self, tracer):
        assert tracer.graft({"name": "x", "seconds": 0.0}) is None


class TestJsonlSink:
    def test_lines_are_parseable_and_parent_linked(self, tracer, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            tracer.attach(sink)
            with obs.span("a"):
                with obs.span("b"):
                    pass
            with obs.span("c"):
                pass
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["name"] for r in records] == ["a", "b", "c"]
        ids = [r["id"] for r in records]
        assert len(set(ids)) == len(ids)
        by_id = {r["id"]: r for r in records}
        for record in records:
            if record["parent"] is not None:
                assert record["parent"] in by_id
                assert record["parent"] < record["id"]  # parents precede children
        assert records[1]["parent"] == records[0]["id"]
        assert records[2]["parent"] is None


class TestRenderTree:
    def test_tree_shows_names_times_and_attrs(self, tracer):
        sink = tracer.attach(InMemorySink())
        with obs.span("transform", kernel="gcd"):
            with obs.span("phase:purify"):
                pass
        text = render_tree(sink.spans)
        assert "transform" in text and "  phase:purify" in text
        assert "kernel=gcd" in text
        assert "total" in text.splitlines()[0] and "self" in text.splitlines()[0]


class TestMetricsSnapshot:
    def test_roundtrip_and_summary(self):
        snapshot = MetricsSnapshot(
            counters={
                "executor.cache_hits": 1,
                "executor.serial": 2,
                "executor.pool": 1,
                "executor.seconds": 1.5,
                "rewriting.applied": 7,
                "rewriting.matches_tried": 40,
                "rewriting.seconds": 0.3,
                "rewriting.applied:mux-combine": 7,
                "pipeline.transforms": 1,
            }
        )
        assert snapshot.executor == {
            "units": 4, "hits": 1, "executed": 3, "retries": 0, "total_seconds": 1.5,
        }
        assert snapshot.rewriting["rewrites_applied"] == 7
        assert snapshot.per_rewrite == {
            "mux-combine": {"applied": 7, "matches_tried": 0, "match_seconds": 0.0}
        }
        data = snapshot.to_dict()
        assert data["kind"] == "MetricsSnapshot"
        assert "gauges" not in data
        again = MetricsSnapshot.from_dict(data)
        assert again.to_dict() == data
        text = snapshot.summary()
        assert "4 units" in text and "7 rewrites applied" in text
        assert "pipeline.transforms=1" in text
        assert "rewriting.applied" not in text  # shown in the rewriting part

    def test_reads_a_v2_payload(self):
        data = MetricsSnapshot(counters={"executor.serial": 2}).to_dict()
        v2 = {**data, "schema_version": 2, "gauges": {"depth": 3.5}}
        assert MetricsSnapshot.from_dict(v2).to_dict() == data

    def test_empty_snapshot_summary(self):
        assert "0 units" in MetricsSnapshot().summary()

    def test_fresh_session_summary_omits_idle_sections(self):
        with Session(use_cache=False) as session:
            snapshot = session.metrics()
        # The section exists, zero-filled, but no transform ran.
        assert snapshot.rewriting
        text = snapshot.summary()
        assert "rewrites applied" not in text
        assert text.startswith("0 units")
