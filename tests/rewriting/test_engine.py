"""Tests for the rewrite engine driver."""

import pytest

from repro import obs
from repro.components import fork, join, pure, sink, split
from repro.core.exprhigh import ExprHigh
from repro.errors import RewriteError
from repro.obs import MetricsSnapshot
from repro.rewriting.engine import RewriteEngine
from repro.rewriting.rewrite import Match, Rewrite
from repro.rewriting.rules.common import graph_of
from repro.rewriting.rules.pure_gen import pure_compose
from repro.rewriting.rules.reduction import fork_sink_elim, split_join_elim


@pytest.fixture
def stats():
    """Snapshots of what the engine counted during the test, on a private tracer."""
    with obs.scoped_tracer() as tracer:
        yield lambda: MetricsSnapshot(counters=dict(tracer.counters))


def pure_chain(length):
    g = ExprHigh()
    previous = None
    for index in range(length):
        name = f"p{index}"
        g.add_node(name, pure("incr"))
        if previous:
            g.connect(previous, "out0", name, "in0")
        previous = name
    g.mark_input(0, "p0", "in0")
    g.mark_output(0, previous, "out0")
    return g


class TestApplyOnce:
    def test_returns_none_without_match(self, stats):
        engine = RewriteEngine()
        g = graph_of({"s": sink()}, [], {0: "s.in0"}, {})
        assert engine.apply_once(g, split_join_elim()) is None
        assert stats().rewrites_applied == 0

    def test_logs_application(self, stats):
        engine = RewriteEngine()
        g = pure_chain(2)
        result = engine.apply_once(g, pure_compose())
        assert result is not None
        assert stats().rewrites_applied == 1
        assert engine.log[0].rewrite == "pure-compose"
        assert stats().per_rewrite["pure-compose"]["applied"] == 1

    def test_matches_tried_counts_candidate_bindings(self, stats):
        engine = RewriteEngine()
        g = pure_chain(3)  # three Pure nodes: anchor tries each of them
        engine.apply_once(g, pure_compose())
        entry = stats().per_rewrite["pure-compose"]
        # The first anchor candidate (p0 in sorted order) already extends to
        # a full match, so exactly two bindings are attempted: p0 and its
        # adjacency-derived partner p1.
        assert entry["matches_tried"] == 2
        assert stats().matches_tried == 2
        assert entry["match_seconds"] >= 0.0

    def test_no_match_still_counts_candidates(self, stats):
        engine = RewriteEngine()
        g = graph_of({"s": sink()}, [], {0: "s.in0"}, {})
        assert engine.apply_once(g, split_join_elim()) is None
        entry = stats().per_rewrite["split-join-elim"]
        assert entry["applied"] == 0
        assert entry["matches_tried"] == 0  # no Split in the graph: type index is empty


class TestExhaustive:
    def test_chain_collapses_to_one_pure(self, stats):
        engine = RewriteEngine()
        result = engine.apply_exhaustively(pure_chain(5), [pure_compose()])
        pures = [s for s in result.nodes.values() if s.typ == "Pure"]
        assert len(pures) == 1
        assert stats().rewrites_applied == 4
        assert len(engine.log) == 4

    def test_composed_function_is_correct(self):
        from repro.components import default_environment
        from repro.rewriting import algebra

        engine = RewriteEngine()
        result = engine.apply_exhaustively(pure_chain(4), [pure_compose()])
        (spec,) = [s for s in result.nodes.values() if s.typ == "Pure"]
        env = default_environment()
        fn = algebra.ensure(env, str(spec.param("fn")))
        assert fn(0) == 4

    def test_fixpoint_with_multiple_rules(self):
        engine = RewriteEngine()
        g = ExprHigh()
        g.add_node("f", fork(2))
        g.add_node("snk", sink())
        g.add_node("p", pure("incr"))
        g.connect("f", "out1", "snk", "in0")
        g.connect("f", "out0", "p", "in0")
        g.mark_input(0, "f", "in0")
        g.mark_output(0, "p", "out0")
        result = engine.apply_exhaustively(g, [fork_sink_elim(), pure_compose()])
        # fork+sink -> id wire, then id absorbed? pure-compose needs two
        # Pures; the id wire is a Pure so it composes with p.
        assert all(s.typ == "Pure" for s in result.nodes.values())
        assert len(result.nodes) == 1

    def test_divergence_guard(self):
        # A rewrite that rewrites a Pure into two Pures diverges; the engine
        # must stop at max_steps.
        def explode_rhs(match: Match):
            return graph_of(
                {"a": pure("incr"), "b": pure("incr")},
                [("a.out0", "b.in0")],
                {0: "a.in0"},
                {0: "b.out0"},
            )

        diverging = Rewrite(
            name="exploding",
            lhs=graph_of({"a": pure("incr")}, [], {0: "a.in0"}, {0: "a.out0"}),
            rhs=explode_rhs,
        )
        engine = RewriteEngine()
        with pytest.raises(RewriteError):
            engine.apply_exhaustively(pure_chain(1), [diverging], max_steps=25)

    def test_stats_track_time(self, stats):
        engine = RewriteEngine()
        engine.apply_exhaustively(pure_chain(3), [pure_compose()])
        assert stats().rewriting["seconds"] >= 0.0
        assert stats().matches_tried >= 2

    @pytest.mark.parametrize("length", [1, 4])
    def test_fixpoint_reached_in_exactly_max_steps(self, length):
        # A chain of n Pures composes into one in n - 1 applications.
        engine = RewriteEngine()
        result = engine.apply_exhaustively(
            pure_chain(length), [pure_compose()], max_steps=length - 1
        )
        assert len(result.nodes) == 1
        assert len(engine.log) == length - 1

    def test_one_step_short_of_the_fixpoint_raises(self):
        engine = RewriteEngine()
        with pytest.raises(RewriteError, match="no fixpoint after 2 rewrite applications"):
            engine.apply_exhaustively(pure_chain(4), [pure_compose()], max_steps=2)
        assert len(engine.log) == 2

    def test_removed_worklist_knobs_are_rejected(self):
        engine = RewriteEngine()
        with pytest.raises(TypeError):
            engine.apply_exhaustively(pure_chain(3), [pure_compose()], use_worklist=False)
        with pytest.raises(TypeError):
            engine.apply_once(pure_chain(3), pure_compose(), anchors=["p0"])
        assert not hasattr(engine, "matches")
        assert not hasattr(engine, "verified_fraction")
        assert not hasattr(ExprHigh, "adjacent_nodes")
