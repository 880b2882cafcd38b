"""Tests for the ExprHigh named graph language and ExprLow round trips."""

import pytest

from repro.components import buffer, fork, join, mux, operator, sink
from repro.core.exprhigh import Endpoint, ExprHigh, NodeSpec, lift
from repro.errors import GraphError


def fork_mod_graph():
    """The figure 6 example: a fork feeding a modulo operator."""
    g = ExprHigh()
    g.add_node("f", fork(2))
    g.add_node("m", operator("mod", 2))
    g.connect("f", "out0", "m", "in0")
    g.mark_input(0, "f", "in0")
    g.mark_input(1, "m", "in1")
    g.mark_output(0, "f", "out1")
    g.mark_output(1, "m", "out0")
    return g


class TestConstruction:
    def test_duplicate_node_rejected(self):
        g = ExprHigh()
        g.add_node("a", fork(2))
        with pytest.raises(GraphError):
            g.add_node("a", fork(2))

    def test_connect_unknown_port_rejected(self):
        g = ExprHigh()
        g.add_node("a", fork(2))
        g.add_node("b", sink())
        with pytest.raises(GraphError):
            g.connect("a", "nope", "b", "in0")

    def test_double_connect_input_rejected(self):
        g = ExprHigh()
        g.add_node("a", fork(2))
        g.add_node("b", sink())
        g.connect("a", "out0", "b", "in0")
        with pytest.raises(GraphError):
            g.connect("a", "out1", "b", "in0")

    def test_double_connect_output_rejected(self):
        g = ExprHigh()
        g.add_node("a", fork(2))
        g.add_node("b", sink())
        g.add_node("c", sink())
        g.connect("a", "out0", "b", "in0")
        with pytest.raises(GraphError):
            g.connect("a", "out0", "c", "in0")

    def test_validate_detects_loose_ports(self):
        g = ExprHigh()
        g.add_node("a", fork(2))
        with pytest.raises(GraphError):
            g.validate()

    def test_mark_connected_port_as_input_rejected(self):
        g = ExprHigh()
        g.add_node("a", fork(2))
        g.add_node("b", sink())
        g.connect("a", "out0", "b", "in0")
        with pytest.raises(GraphError):
            g.mark_input(0, "b", "in0")


class TestQueries:
    def test_source_and_sinks(self):
        g = fork_mod_graph()
        assert g.source_of("m", "in0") == Endpoint("f", "out0")
        assert g.sinks_of("f", "out0") == [Endpoint("m", "in0")]
        assert g.source_of("f", "in0") is None

    def test_successors_predecessors(self):
        g = fork_mod_graph()
        succs = list(g.successors("f"))
        assert [s[0] for s in succs] == ["m"]
        preds = list(g.predecessors("m"))
        assert [p[0] for p in preds] == ["f"]


class TestMutation:
    def test_remove_node_clears_connections(self):
        g = fork_mod_graph()
        g.remove_node("m")
        assert all(dst.node != "m" and src.node != "m" for dst, src in g.connections.items())
        assert 1 not in g.inputs

    def test_copy_is_independent(self):
        g = fork_mod_graph()
        clone = g.copy()
        clone.remove_node("m")
        assert "m" in g.nodes

    def test_disconnect_returns_source(self):
        g = fork_mod_graph()
        src = g.disconnect("m", "in0")
        assert src == Endpoint("f", "out0")
        assert g.source_of("m", "in0") is None

    def test_replace_spec_swaps_params_in_place(self):
        g = fork_mod_graph()
        g.replace_spec("m", g.nodes["m"].with_params(tagged=True))
        assert g.nodes["m"].param("tagged") is True
        assert g.source_of("m", "in0") == Endpoint("f", "out0")
        assert g.nodes_of_type("Operator") == ["m"]

    def test_replace_spec_rejects_dropping_connected_port(self):
        g = fork_mod_graph()
        narrower = NodeSpec.make("Operator", ["in1"], ["out0"], {"op": "mod"})
        with pytest.raises(GraphError):
            g.replace_spec("m", narrower)
        assert g.nodes["m"].in_ports == ("in0", "in1")


def _snapshot(g):
    return (
        dict(g.nodes),
        dict(g.connections),
        dict(g.inputs),
        dict(g.outputs),
        {typ: list(names) for typ, names in g._by_type.items()},
        {n: list(e) for n, e in g._out_edges.items()},
        {n: list(e) for n, e in g._in_edges.items()},
        dict(g._rev),
    )


class TestAtomicity:
    """Failed mutations must leave the graph and all indexes untouched."""

    def test_failed_remove_leaves_graph_unchanged(self):
        g = fork_mod_graph()
        before = _snapshot(g)
        with pytest.raises(GraphError):
            g.remove_node("ghost")
        assert _snapshot(g) == before

    def test_failed_replace_spec_leaves_graph_unchanged(self):
        g = fork_mod_graph()
        before = _snapshot(g)
        with pytest.raises(GraphError):
            g.replace_spec("m", NodeSpec.make("Operator", [], [], {}))
        with pytest.raises(GraphError):
            g.replace_spec("ghost", fork(2))
        assert _snapshot(g) == before


class TestLowerLift:
    def test_lower_produces_expected_size(self):
        low = fork_mod_graph().lower()
        assert low.size() == 2
        assert len(list(low.connections())) == 1

    def test_lift_round_trips_structure(self):
        g = fork_mod_graph()
        lifted = lift(g.lower())
        assert set(lifted.nodes) == set(g.nodes)
        assert len(lifted.connections) == len(g.connections)
        assert set(lifted.inputs) == set(g.inputs)
        assert set(lifted.outputs) == set(g.outputs)

    def test_lift_recovers_params(self):
        g = fork_mod_graph()
        lifted = lift(g.lower())
        assert lifted.nodes["m"].param("op") == "mod"
        assert lifted.nodes["f"].param("n") == 2

    def test_lower_with_custom_order(self):
        g = fork_mod_graph()
        low = g.lower(node_order=["m", "f"])
        assert [b for b in low.bases()][0].typ.startswith("Operator")

    def test_lower_rejects_bad_order(self):
        g = fork_mod_graph()
        with pytest.raises(GraphError):
            g.lower(node_order=["m"])

    def test_double_round_trip_is_stable(self):
        g = fork_mod_graph()
        once = lift(g.lower())
        twice = lift(once.lower())
        assert set(twice.nodes) == set(once.nodes)
        assert twice.lower() == once.lower()


    def test_long_chain_round_trips(self):
        """Lowering and lifting are not bounded by the recursion limit."""
        g = ExprHigh()
        names = [f"b{i:04d}" for i in range(2000)]
        for name in names:
            g.add_node(name, buffer(slots=2))
        for src, dst in zip(names, names[1:]):
            g.connect(src, "out0", dst, "in0")
        g.mark_input(0, names[0], "in0")
        g.mark_output(0, names[-1], "out0")
        lifted = lift(g.lower(), g.nodes)
        assert list(lifted.nodes.items()) == list(g.nodes.items())
        assert sorted(lifted.connections.items(), key=str) == sorted(g.connections.items(), key=str)
        assert lifted.inputs == g.inputs and lifted.outputs == g.outputs

class TestNodeSpec:
    def test_param_access(self):
        spec = mux(type="i32")
        assert spec.param("type") == "i32"
        assert spec.param("missing", 42) == 42

    def test_with_params_merges(self):
        spec = join().with_params(type="i32")
        assert spec.param("type") == "i32"

    def test_specs_are_hashable(self):
        assert hash(NodeSpec.make("X", ["a"], ["b"], {"k": 1}))
