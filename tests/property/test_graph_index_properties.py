"""Property tests for the indexed graph core.

Every indexed adjacency/type query agrees with a linear scan over the
public ``nodes``/``connections`` mappings, both on freshly built random
graphs and after arbitrary mutation sequences (including failed, atomic
mutations).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exprhigh import Endpoint, ExprHigh, NodeSpec
from repro.errors import GraphError

TYPES = ("Alpha", "Beta", "Gamma")


@st.composite
def graphs(draw):
    count = draw(st.integers(1, 8))
    g = ExprHigh()
    for i in range(count):
        typ = draw(st.sampled_from(TYPES))
        n_in = draw(st.integers(0, 3))
        n_out = draw(st.integers(0, 3))
        g.add_node(
            f"n{i}",
            NodeSpec.make(
                typ,
                [f"in{j}" for j in range(n_in)],
                [f"out{j}" for j in range(n_out)],
                {},
            ),
        )
    outs = [(n, p) for n, s in g.nodes.items() for p in s.out_ports]
    ins = [(n, p) for n, s in g.nodes.items() for p in s.in_ports]
    edges = draw(st.integers(0, min(len(outs), len(ins))))
    for (sn, sp), (dn, dp) in zip(
        draw(st.permutations(outs))[:edges], draw(st.permutations(ins))[:edges]
    ):
        g.connect(sn, sp, dn, dp)
    return g


# -- linear-scan reference implementations of every indexed query ----------


def ref_sinks_of(g, node, port):
    return [dst for dst, src in g.connections.items() if src == Endpoint(node, port)]


def ref_out_edges(g, node):
    return {(src, dst) for dst, src in g.connections.items() if src.node == node}


def ref_in_edges(g, node):
    return {(src, dst) for dst, src in g.connections.items() if dst.node == node}


def ref_nodes_of_type(g, typ):
    return {name for name, spec in g.nodes.items() if spec.typ == typ}


def ref_unconnected_outputs(g):
    used = {src for src in g.connections.values()} | set(g.outputs.values())
    return [
        Endpoint(name, port)
        for name, spec in g.nodes.items()
        for port in spec.out_ports
        if Endpoint(name, port) not in used
    ]


def assert_indexes_agree(g):
    for name, spec in g.nodes.items():
        for port in spec.out_ports:
            assert g.sinks_of(name, port) == ref_sinks_of(g, name, port)
            sink = g.sink_of(name, port)
            assert [sink] == ref_sinks_of(g, name, port) if sink else not ref_sinks_of(g, name, port)
        assert set(g.out_edges(name)) == ref_out_edges(g, name)
        assert set(g.in_edges(name)) == ref_in_edges(g, name)
        assert {s for s, _, _ in g.successors(name)} == {d.node for _, d in ref_out_edges(g, name)}
        assert {p for p, _, _ in g.predecessors(name)} == {s.node for s, _ in ref_in_edges(g, name)}
    for typ in TYPES:
        assert set(g.nodes_of_type(typ)) == ref_nodes_of_type(g, typ)
    assert sorted(map(str, g.unconnected_outputs())) == sorted(
        map(str, ref_unconnected_outputs(g))
    )


class TestIndexedQueriesAgreeWithLinearScan:
    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_fresh_graphs(self, g):
        assert_indexes_agree(g)

    @given(graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_after_mutation_sequences(self, g, data):
        ops = data.draw(
            st.lists(
                st.sampled_from(
                    ["remove", "disconnect", "connect", "retype", "bad"]
                ),
                max_size=8,
            )
        )
        for op in ops:
            names = sorted(g.nodes)
            try:
                if op == "remove" and names:
                    g.remove_node(data.draw(st.sampled_from(names)))
                elif op == "disconnect" and g.connections:
                    dst = data.draw(st.sampled_from(sorted(g.connections, key=str)))
                    g.disconnect(dst.node, dst.port)
                elif op == "connect":
                    free_out = sorted(map(str, g.unconnected_outputs()))
                    free_in = sorted(map(str, g.unconnected_inputs()))
                    if free_out and free_in:
                        src = data.draw(st.sampled_from(free_out))
                        dst = data.draw(st.sampled_from(free_in))
                        sn, sp = src.split(".")
                        dn, dp = dst.split(".")
                        g.connect(sn, sp, dn, dp)
                elif op == "retype" and names:
                    name = data.draw(st.sampled_from(names))
                    g.replace_spec(
                        name,
                        g.nodes[name].with_type(data.draw(st.sampled_from(TYPES))),
                    )
                elif op == "bad":
                    # A failing mutation must be atomic: indexes still agree.
                    g.remove_node("missing")  # generated nodes are named n<i>
            except GraphError:
                pass
            assert_indexes_agree(g)

    @given(graphs())
    @settings(max_examples=30, deadline=None)
    def test_rebuilt_graph_answers_identically(self, g):
        from repro.exec.hashing import graph_fingerprint

        rebuilt = ExprHigh(
            nodes=dict(g.nodes),
            connections=dict(g.connections),
            inputs=dict(g.inputs),
            outputs=dict(g.outputs),
        )
        assert graph_fingerprint(rebuilt) == graph_fingerprint(g)
        for name in g.nodes:
            assert set(g.out_edges(name)) == set(rebuilt.out_edges(name))
            assert set(g.in_edges(name)) == set(rebuilt.in_edges(name))

