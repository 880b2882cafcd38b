"""Tests for rewrite application through ExprLow."""

import pytest

from repro.benchmarks import load_benchmark
from repro.components import buffer, default_environment, fork, join, mux, pure, split
from repro.core import denote, exprlow
from repro.core.exprhigh import Endpoint, ExprHigh, lift
from repro.core.ports import InternalPort, IOPort
from repro.errors import GraphError, RewriteError
from repro.eval.paper_data import BENCHMARKS
from repro.hls.frontend import compile_program
from repro.interop.corpus import case_seeds, generate_case
from repro.refinement import refines, uniform_stimuli
from repro.rewriting import apply as apply_module
from repro.rewriting import engine as engine_module
from repro.rewriting.apply import apply_rewrite
from repro.rewriting.matcher import first_match
from repro.rewriting.pipeline import GraphitiPipeline
from repro.rewriting.rewrite import Match, Rewrite
from repro.rewriting.rules.combine import mux_combine
from repro.rewriting.rules.common import graph_of
from repro.rewriting.rules.reduction import split_join_elim

from .normalizers import buffer_elim
from .test_matcher import host_two_mux_loop


class TestApplyMuxCombine:
    def _apply(self):
        host = host_two_mux_loop()
        rewrite = mux_combine()
        match = first_match(host, rewrite)
        return host, apply_rewrite(host, rewrite, match)

    def test_removes_matched_and_adds_replacement(self):
        host, (result, record) = self._apply()
        assert "cfork" not in result.nodes
        assert "m_a" not in result.nodes
        types = sorted(spec.typ for spec in result.nodes.values())
        assert types.count("Mux") == 1
        assert types.count("Join") == 3  # two new joins + host's own join
        assert record.matched_nodes == frozenset({"cfork", "m_a", "m_b"})

    def test_crossing_edges_rewired(self):
        host, (result, _) = self._apply()
        # The host's join must now be fed by the replacement Split.
        src = result.source_of("jn", "in0")
        assert result.nodes[src.node].typ == "Split"

    def test_host_external_inputs_remarked(self):
        host, (result, _) = self._apply()
        assert set(result.inputs) == set(host.inputs)
        cond_target = result.inputs[0]
        assert result.nodes[cond_target.node].typ == "Mux"
        assert cond_target.port == "cond"

    def test_result_validates(self):
        _, (result, _) = self._apply()
        result.validate()

    def test_application_marks_verified(self):
        _, (_, record) = self._apply()
        assert record.verified
        assert record.rewrite == "mux-combine"


class TestInterfaceChecks:
    def test_rhs_interface_mismatch_rejected(self):
        host = host_two_mux_loop()
        rewrite = mux_combine()
        match = first_match(host, rewrite)

        def bad_rhs(m: Match) -> ExprHigh:
            return graph_of({"p": pure("id")}, [], {0: "p.in0"}, {0: "p.out0"})

        broken = Rewrite(name="broken", lhs=rewrite.lhs, rhs=bad_rhs)
        with pytest.raises(RewriteError):
            apply_rewrite(host, broken, match)


class TestSemanticPreservation:
    """Theorem 4.6, observed: applying a verified rewrite to a concrete
    graph produces a graph refining the original."""

    def _small_host(self):
        g = ExprHigh()
        g.add_node("sp", split())
        g.add_node("jn", join())
        g.add_node("post", pure("id"))
        g.connect("sp", "out0", "jn", "in0")
        g.connect("sp", "out1", "jn", "in1")
        g.connect("jn", "out0", "post", "in0")
        g.mark_input(0, "sp", "in0")
        g.mark_output(0, "post", "out0")
        return g

    def test_split_join_elim_preserves_refinement(self):
        env = default_environment(capacity=1)
        host = self._small_host()
        rewrite = split_join_elim()
        match = first_match(host, rewrite)
        result, _ = apply_rewrite(host, rewrite, match)
        impl = denote(result.lower(), env)
        spec = denote(host.lower(), env.with_capacity(4))
        stimuli = uniform_stimuli(impl, ((1, 2),))
        assert refines(impl, spec, stimuli)

    def test_rewritten_graph_still_computes(self):
        env = default_environment(capacity=2)
        host = self._small_host()
        rewrite = split_join_elim()
        result, _ = apply_rewrite(host, rewrite, first_match(host, rewrite))
        module = denote(result.lower(), env)
        from repro.core.ports import IOPort

        (state,) = module.init
        (state,) = module.inputs[IOPort(0)].fire(state, (7, 8))
        # run internal transitions until the output appears
        emitted = set()
        frontier = [state]
        seen = set(frontier)
        while frontier:
            current = frontier.pop()
            for value, _ in module.outputs[IOPort(0)].fire(current):
                emitted.add(value)
            for nxt in module.internal_steps(current):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert emitted == {(7, 8)}


class TestFreshNaming:
    def test_replacement_names_do_not_collide(self):
        # The host's join pre-claims the replacement's natural name.
        host = host_two_mux_loop(join_name="jt")
        rewrite = mux_combine()
        match = first_match(host, rewrite)
        result, record = apply_rewrite(host, rewrite, match)
        assert "jt" in result.nodes  # the host's node keeps its name
        assert len(record.new_nodes) == 4
        result.validate()


def identity_wire(name="w"):
    return graph_of({name: pure("id")}, [], {0: f"{name}.in0"}, {0: f"{name}.out0"})


class TestErrorPaths:
    def test_rhs_identical_to_region_does_not_fire(self):
        # A region whose ports are all external lowers to the same term as
        # an identical replacement, whatever the replacement's node is named.
        host = identity_wire("f")
        rewrite = Rewrite(name="noop", lhs=identity_wire("p"), rhs=lambda m: identity_wire("p"))
        match = first_match(host, rewrite)
        assert match is not None
        with pytest.raises(RewriteError, match="noop.*did not fire"):
            apply_rewrite(host, rewrite, match)

    def test_uncovered_boundary_output_rejected(self):
        host = graph_of(
            {"f": fork(2), "a": pure("id"), "b": pure("id")},
            [("f.out0", "a.in0"), ("f.out1", "b.in0")],
            {0: "f.in0"},
            {0: "a.out0", 1: "b.out0"},
        )
        rewrite = Rewrite(name="narrow", lhs=identity_wire("x"), rhs=lambda m: identity_wire())
        # The match covers f.out0 only; the edge f.out1 -> b.in0 is left dangling.
        match = Match(
            nodes={"x": "f"}, params={}, inputs={0: Endpoint("f", "in0")}, outputs={0: Endpoint("f", "out0")}
        )
        with pytest.raises(GraphError):
            apply_rewrite(host, rewrite, match)

    def test_uncovered_boundary_input_rejected(self):
        host = graph_of(
            {"a": pure("id"), "b": pure("id"), "j": join()},
            [("a.out0", "j.in0"), ("b.out0", "j.in1")],
            {0: "a.in0", 1: "b.in0"},
            {0: "j.out0"},
        )
        rewrite = Rewrite(name="narrow", lhs=identity_wire("x"), rhs=lambda m: identity_wire())
        match = Match(
            nodes={"x": "j"}, params={}, inputs={0: Endpoint("j", "in0")}, outputs={0: Endpoint("j", "out0")}
        )
        with pytest.raises(GraphError):
            apply_rewrite(host, rewrite, match)

    def test_all_external_node_is_lifted_anonymously(self):
        # A node with no internal port has no name in ExprLow: lifting calls
        # it _anon{i}, i its position, with positional port names.
        host = TestSemanticPreservation()._small_host()
        host.add_node("solo", mux())
        for index, port in enumerate(("cond", "in0", "in1"), start=1):
            host.mark_input(index, "solo", port)
        host.mark_output(1, "solo", "out0")
        rewrite = split_join_elim()
        result, _ = apply_rewrite(host, rewrite, first_match(host, rewrite))
        assert "solo" not in result.nodes
        position = list(result.nodes).index("post") + 1
        anon = f"_anon{position}"
        assert list(result.nodes)[position] == anon
        assert result.nodes[anon].typ == "Mux"
        assert result.nodes[anon].in_ports == ("in0", "in1", "in2")
        assert result.inputs[1] == Endpoint(anon, "in0")
        assert result.outputs[1] == Endpoint(anon, "out0")


class TestDeepHosts:
    def test_buffer_chain_of_a_thousand(self):
        host = ExprHigh()
        names = [f"b{i:04d}" for i in range(1000)]
        for name in names:
            host.add_node(name, buffer(slots=2))
        for src, dst in zip(names, names[1:]):
            host.connect(src, "out0", dst, "in0")
        host.mark_input(0, names[0], "in0")
        host.mark_output(0, names[-1], "out0")
        rewrite = buffer_elim()
        match = first_match(host, rewrite)
        result, record = apply_rewrite(host, rewrite, match)
        (wire,) = record.new_nodes
        assert result.nodes[wire].typ == "Pure"
        assert len(result.nodes) == 1000
        assert len(result.connections) == 999


def whole_graph_apply(graph, rewrite, match):
    """The section 4.2 round trip over the whole host graph: lower, isolate
    the region, substitute the renamed replacement, stitch the crossing
    ports and lift the whole term back."""
    replacement = rewrite.rhs(match)
    matched = match.host_nodes()
    fresh = apply_module._fresh_names(graph, replacement, rewrite.name)
    renamed = apply_module._rename_graph(replacement, fresh)

    owners = sorted(graph.nodes)
    low = graph.lower(node_order=owners)
    bases = list(low.bases())
    selected = {id(base) for base, owner in zip(bases, owners) if owner in matched}
    sub, _, crossing, rest = exprlow.isolate(low, lambda base: id(base) in selected)
    iso = exprlow.build_around(sub, rest, crossing)

    in_map, cross_in, out_map, cross_out = {}, {}, {}, {}
    for index, host_endpoint in match.inputs.items():
        new_name = InternalPort(renamed.inputs[index].node, renamed.inputs[index].port)
        io = [IOPort(i) for i, marked in graph.inputs.items() if marked == host_endpoint]
        in_map[IOPort(index)] = io[0] if io else new_name
        if not io:
            cross_in[InternalPort(host_endpoint.node, host_endpoint.port)] = new_name
    for index, host_endpoint in match.outputs.items():
        new_name = InternalPort(renamed.outputs[index].node, renamed.outputs[index].port)
        io = [IOPort(i) for i, marked in graph.outputs.items() if marked == host_endpoint]
        out_map[IOPort(index)] = io[0] if io else new_name
        if not io:
            cross_out[InternalPort(host_endpoint.node, host_endpoint.port)] = new_name

    new_sub = exprlow.rename_ports(renamed.lower(node_order=sorted(renamed.nodes)), in_map, out_map)
    replaced = iso.substitute(sub, new_sub)
    assert replaced != iso
    final = exprlow.rename_ports(replaced, cross_in, cross_out)
    specs = {name: spec for name, spec in graph.nodes.items() if name not in matched}
    specs.update({fresh[name]: spec for name, spec in replacement.nodes.items()})
    return lift(final, specs), matched, frozenset(fresh.values())


def graph_layout(graph):
    """Everything about a graph that iteration can observe, in order."""
    return (
        list(graph.nodes.items()),
        list(graph.connections.items()),
        list(graph.inputs.items()),
        list(graph.outputs.items()),
        list(graph._rev.items()),
        [(node, list(edges)) for node, edges in graph._out_edges.items()],
        [(node, list(edges)) for node, edges in graph._in_edges.items()],
        [(typ, list(names)) for typ, names in graph._by_type.items()],
    )


class TestMatchesWholeGraphRoute:
    """Local application builds exactly the graph the whole-graph round
    trip lifts, on every application the paper flow and a fuzz corpus make."""

    @pytest.fixture
    def checked(self, monkeypatch):
        applied = []
        mismatches = []

        def apply_and_compare(graph, rewrite, match):
            expected, matched, new_nodes = whole_graph_apply(graph, rewrite, match)
            result, record = apply_rewrite(graph, rewrite, match)
            if graph_layout(result) != graph_layout(expected):
                mismatches.append((rewrite.name, "graph"))
            if (record.rewrite, record.matched_nodes, record.new_nodes, record.verified) != (
                rewrite.name, matched, new_nodes, rewrite.verified
            ):
                mismatches.append((rewrite.name, "application"))
            applied.append(rewrite.name)
            return result, record

        monkeypatch.setattr(engine_module, "apply_rewrite", apply_and_compare)
        return applied, mismatches

    @staticmethod
    def _transform(program):
        env = default_environment()
        for kernel in compile_program(program, env).kernels:
            GraphitiPipeline(env).transform_kernel(kernel.graph, kernel.mark)

    def test_paper_kernels(self, checked):
        applied, mismatches = checked
        for name in BENCHMARKS:
            self._transform(load_benchmark(name))
        assert len(applied) > 50
        assert mismatches == []

    def test_fuzz_corpus(self, checked):
        applied, mismatches = checked
        for seed in case_seeds(9, 25):
            self._transform(generate_case(seed).program)
        assert len(applied) > 150
        assert mismatches == []
