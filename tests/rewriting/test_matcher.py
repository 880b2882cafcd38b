"""Tests for subgraph pattern matching."""

import pytest

from repro.components import branch, fork, init, join, mux, pure, split
from repro.core.exprhigh import Endpoint, ExprHigh, NodeSpec
from repro.errors import MatchError
from repro.rewriting.matcher import find_matches, first_match
from repro.rewriting.rewrite import Rewrite, Var
from repro.rewriting.rules.combine import mux_combine
from repro.rewriting.rules.common import graph_of


def host_two_mux_loop(join_name="jn"):
    """A host graph containing the mux-combine lhs plus surroundings."""
    g = ExprHigh()
    g.add_node("cfork", fork(2))
    g.add_node("m_a", mux())
    g.add_node("m_b", mux())
    g.add_node("body", pure("id"))
    g.add_node(join_name, join())
    g.connect("cfork", "out0", "m_a", "cond")
    g.connect("cfork", "out1", "m_b", "cond")
    g.connect("m_a", "out0", join_name, "in0")
    g.connect("m_b", "out0", join_name, "in1")
    g.connect(join_name, "out0", "body", "in0")
    g.mark_input(0, "cfork", "in0")
    g.mark_input(1, "m_a", "in0")
    g.mark_input(2, "m_a", "in1")
    g.mark_input(3, "m_b", "in0")
    g.mark_input(4, "m_b", "in1")
    g.mark_output(0, "body", "out0")
    return g


class TestBasicMatching:
    def test_finds_the_combine_site(self):
        match = first_match(host_two_mux_loop(), mux_combine())
        assert match is not None
        assert match.nodes["fk"] == "cfork"
        assert {match.nodes["ma"], match.nodes["mb"]} == {"m_a", "m_b"}

    def test_interface_endpoints_point_at_host(self):
        match = first_match(host_two_mux_loop(), mux_combine())
        assert match.inputs[0] == Endpoint("cfork", "in0")
        assert match.outputs[0].port == "out0"

    def test_no_match_in_unrelated_graph(self):
        g = ExprHigh()
        g.add_node("p", pure("id"))
        g.mark_input(0, "p", "in0")
        g.mark_output(0, "p", "out0")
        assert first_match(g, mux_combine()) is None

    def test_matches_are_deterministic(self):
        first_run = [m.nodes for m in find_matches(host_two_mux_loop(), mux_combine())]
        second_run = [m.nodes for m in find_matches(host_two_mux_loop(), mux_combine())]
        assert first_run == second_run

    def test_removed_anchors_parameter_is_rejected(self):
        with pytest.raises(TypeError):
            first_match(host_two_mux_loop(), mux_combine(), anchors=["cfork"])
        with pytest.raises(TypeError):
            find_matches(host_two_mux_loop(), mux_combine(), anchors=["cfork"])

    def test_empty_pattern_rejected(self):
        bad = Rewrite(name="empty", lhs=ExprHigh(), rhs=lambda m: ExprHigh())
        with pytest.raises(MatchError):
            list(find_matches(host_two_mux_loop(), bad))


class TestParameterBinding:
    def _pure_chain(self, first_fn, second_fn):
        g = ExprHigh()
        g.add_node("p", pure(first_fn))
        g.add_node("q", pure(second_fn))
        g.connect("p", "out0", "q", "in0")
        g.mark_input(0, "p", "in0")
        g.mark_output(0, "q", "out0")
        return g

    def _var_pattern(self):
        spec = NodeSpec.make("Pure", ["in0"], ["out0"], {"fn": Var("F")})
        other = NodeSpec.make("Pure", ["in0"], ["out0"], {"fn": Var("F")})
        return graph_of(
            {"a": spec, "b": other},
            [("a.out0", "b.in0")],
            {0: "a.in0"},
            {0: "b.out0"},
        )

    def test_same_var_must_bind_same_value(self):
        pattern = Rewrite(name="same-fn", lhs=self._var_pattern(), rhs=lambda m: None)
        assert first_match(self._pure_chain("incr", "incr"), pattern) is not None
        assert first_match(self._pure_chain("incr", "id"), pattern) is None

    def test_bound_value_is_exposed(self):
        pattern = Rewrite(name="same-fn", lhs=self._var_pattern(), rhs=lambda m: None)
        match = first_match(self._pure_chain("incr", "incr"), pattern)
        assert match.params["F"] == "incr"

    def test_concrete_param_must_equal(self):
        lhs = graph_of({"a": pure("incr")}, [], {0: "a.in0"}, {0: "a.out0"})
        pattern = Rewrite(name="incr-only", lhs=lhs, rhs=lambda m: None)
        host_match = graph_of({"x": pure("incr")}, [], {0: "x.in0"}, {0: "x.out0"})
        host_miss = graph_of({"x": pure("id")}, [], {0: "x.in0"}, {0: "x.out0"})
        assert first_match(host_match, pattern) is not None
        assert first_match(host_miss, pattern) is None

    def test_missing_host_param_rejected_for_var(self):
        spec = NodeSpec.make("Pure", ["in0"], ["out0"], {"nonexistent": Var("X")})
        lhs = graph_of({"a": spec}, [], {0: "a.in0"}, {0: "a.out0"})
        pattern = Rewrite(name="missing", lhs=lhs, rhs=lambda m: None)
        host = graph_of({"x": pure("id")}, [], {0: "x.in0"}, {0: "x.out0"})
        assert first_match(host, pattern) is None


class TestBoundaryConditions:
    def test_extra_internal_edge_blocks_match(self):
        """A host edge inside the candidate region that the pattern does not
        mention must block the match."""
        g = host_two_mux_loop()
        # Rewire m_a's data input from the fork's region: connect cfork
        # cannot be reused (ports single-use), so craft a different host.
        h = ExprHigh()
        h.add_node("cfork", fork(3))
        h.add_node("m_a", mux())
        h.add_node("m_b", mux())
        h.connect("cfork", "out0", "m_a", "cond")
        h.connect("cfork", "out1", "m_b", "cond")
        h.connect("cfork", "out2", "m_a", "in0")  # fork n=3 does not match fork(2)
        h.mark_input(0, "cfork", "in0")
        h.mark_input(1, "m_a", "in1")
        h.mark_input(2, "m_b", "in0")
        h.mark_input(3, "m_b", "in1")
        h.mark_output(0, "m_a", "out0")
        h.mark_output(1, "m_b", "out0")
        assert first_match(h, mux_combine()) is None

    def test_boundary_output_feeding_region_blocks_match(self):
        """If a pattern-boundary output loops straight back into the matched
        region, the region is not replaceable."""
        g = ExprHigh()
        g.add_node("cfork", fork(2))
        g.add_node("m_a", mux())
        g.add_node("m_b", mux())
        g.connect("cfork", "out0", "m_a", "cond")
        g.connect("cfork", "out1", "m_b", "cond")
        g.connect("m_a", "out0", "m_b", "in0")  # boundary output feeds region
        g.mark_input(0, "cfork", "in0")
        g.mark_input(1, "m_a", "in0")
        g.mark_input(2, "m_a", "in1")
        g.mark_input(3, "m_b", "in1")
        g.mark_output(0, "m_b", "out0")
        assert first_match(g, mux_combine()) is None

    def test_injective_node_mapping(self):
        """One host node cannot play two pattern roles."""
        lhs = graph_of(
            {"a": pure("id"), "b": pure("id")},
            [("a.out0", "b.in0")],
            {0: "a.in0"},
            {0: "b.out0"},
        )
        pattern = Rewrite(name="two-distinct", lhs=lhs, rhs=lambda m: None)
        host = graph_of({"only": pure("id")}, [], {0: "only.in0"}, {0: "only.out0"})
        assert first_match(host, pattern) is None
