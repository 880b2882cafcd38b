"""Property: exhaustively rewriting a random graph preserves refinement.

This fuzzes theorem 4.6 end to end: generate a random elastic graph,
normalize it with a set of *verified* rewrites, and check that the result
refines the original (bounded weak simulation).  Any unsound rewrite or
any bug in matching/application/lifting shows up as a counterexample.
"""

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.components import buffer, default_environment, fork, pure, sink
from repro.core import ExprHigh
from repro.core.semantics import denote
from repro.refinement import (
    check_refinement_sat,
    find_weak_simulation,
    recheck_certificate,
    refines,
    uniform_stimuli,
)
from repro.refinement.sat import encode_refinement, solve
from repro.refinement.simulation import _GameCache, _normalise_stimuli
from repro.rewriting.engine import RewriteEngine
from repro.rewriting.rules.pure_gen import fork_lift_pure, pure_compose
from repro.rewriting.rules.reduction import fork_sink_elim, pure_id_elim

from ..rewriting.normalizers import buffer_elim


@st.composite
def elastic_graphs(draw):
    """A random closed graph of Pures, Buffers, Forks and Sinks over ints."""
    graph = ExprHigh()
    graph.add_node("src", pure(draw(st.sampled_from(["id", "incr"]))))
    open_outputs = [("src", "out0")]
    counter = [0]

    def fresh(prefix):
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    for _ in range(draw(st.integers(1, 5))):
        if not open_outputs:
            break
        kind = draw(st.sampled_from(["pure", "buffer", "fork", "sink"]))
        index = draw(st.integers(0, len(open_outputs) - 1))
        src_node, src_port = open_outputs.pop(index)
        if kind == "pure":
            name = fresh("p")
            graph.add_node(name, pure(draw(st.sampled_from(["id", "incr"]))))
            graph.connect(src_node, src_port, name, "in0")
            open_outputs.append((name, "out0"))
        elif kind == "buffer":
            name = fresh("b")
            graph.add_node(name, buffer(slots=draw(st.integers(1, 2))))
            graph.connect(src_node, src_port, name, "in0")
            open_outputs.append((name, "out0"))
        elif kind == "fork":
            name = fresh("f")
            graph.add_node(name, fork(2))
            graph.connect(src_node, src_port, name, "in0")
            open_outputs.append((name, "out0"))
            open_outputs.append((name, "out1"))
        else:
            name = fresh("s")
            graph.add_node(name, sink())
            graph.connect(src_node, src_port, name, "in0")
    # Close the graph: one external input, every open output marked.
    graph.mark_input(0, "src", "in0")
    for index, (node, port) in enumerate(open_outputs):
        graph.mark_output(index, node, port)
    if not open_outputs:
        # Everything was sunk; add an independent pass-through so the graph
        # still has an observable output.
        graph.add_node("tail", pure("id"))
        graph.mark_input(1, "tail", "in0")
        graph.mark_output(0, "tail", "out0")
    graph.validate()
    return graph


NORMALIZERS = [pure_compose, fork_sink_elim, pure_id_elim, buffer_elim, fork_lift_pure]


class TestTheorem46Fuzz:
    @given(elastic_graphs(), st.lists(st.sampled_from(range(len(NORMALIZERS))), max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_rewriting_preserves_refinement(self, graph, rule_choice):
        env = default_environment(capacity=1)
        engine = RewriteEngine()
        rules = [NORMALIZERS[i]() for i in sorted(set(rule_choice))]
        if not rules:
            rules = [pure_compose()]
        rewritten = engine.apply_exhaustively(graph, rules, max_steps=64)

        impl = denote(rewritten.lower(), env)
        # The spec's capacity margin must scale with the graph: lifting a
        # chain of n Pures across a Fork (fork-lift-pure, applied n times)
        # re-buffers the chain downstream of the fork, and the bounded
        # check only relates the two with about n+2 slots of slack on the
        # spec side.  A fixed margin flakes on deep generated chains.
        spec = denote(graph.lower(), env.with_capacity(len(graph.nodes) + 2))
        if impl.input_ports() != spec.input_ports() or impl.output_ports() != spec.output_ports():
            raise AssertionError("rewriting changed the graph interface")
        # One stimulus value keeps the product game small even for graphs
        # with wide fork fan-out; the structural properties under test do
        # not depend on value diversity (incr distinguishes the paths).
        stimuli = uniform_stimuli(impl, (0,))
        assert refines(impl, spec, stimuli), (
            f"rewritten graph does not refine the original after "
            f"{[a.rewrite for a in engine.log]}"
        )

    @given(elastic_graphs())
    @settings(max_examples=25, deadline=None)
    def test_normalization_reaches_fixpoint(self, graph):
        engine = RewriteEngine()
        rules = [pure_compose(), fork_sink_elim(), pure_id_elim(), buffer_elim()]
        result = engine.apply_exhaustively(graph, rules, max_steps=128)
        # Fixpoint: no rule matches the result any more.
        for rule in rules:
            assert engine.apply_once(result, rule) is None


class TestLocalGameAgreesWithSat:
    """The local game solver against the SAT oracle on Theorem-4.6 graphs.

    The capacities are drawn independently, so a rewritten graph with more
    buffering than its spec can fail, and both verdicts occur.  The SAT
    oracle encodes the whole product-reachable arena, which bounds the
    local solver's relation.
    """

    @seed(46)
    @given(
        elastic_graphs(),
        st.lists(st.sampled_from(range(len(NORMALIZERS))), max_size=4),
        st.integers(1, 2),
        st.integers(1, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_verdict_certificate_and_size(self, graph, rule_choice, impl_cap, spec_cap):
        env = default_environment(capacity=impl_cap)
        rules = [NORMALIZERS[i]() for i in sorted(set(rule_choice))]
        rewritten = RewriteEngine().apply_exhaustively(graph, rules, max_steps=64)
        impl = denote(rewritten.lower(), env)
        spec = denote(graph.lower(), env.with_capacity(spec_cap))
        stimuli = uniform_stimuli(impl, (0,))

        game = find_weak_simulation(impl, spec, stimuli)
        sat = check_refinement_sat(impl, spec, stimuli)
        assert sat.definitive
        assert game.holds == sat.holds
        if not game.holds:
            return
        certificate = game.certificate
        assert len(certificate.relation) <= sat.pairs_explored
        rechecked = recheck_certificate(impl, spec, certificate, stimuli)
        assert rechecked.holds and rechecked.method == "exhaustive"


def naive_greatest_relation(impl, spec, stimuli):
    """``(arena, related)``: the product pairs reachable from the initial
    pairs through the three diagrams' responses, and the greatest subset
    of them closed under the diagrams.

    Read literally off the modules' own transitions (no successor table,
    no SCCs) and refined by plain iteration to the fixpoint; for tests.
    """

    closures: dict = {}

    def tau_closure(t):
        if t not in closures:
            closures[t] = spec.tau_closure(t)
        return closures[t]

    def moves(s, t):
        """Per implementation move, its successor and permitted responses."""
        for port, values in stimuli.items():
            for value in values:
                for s_next in impl.inputs[port].fire(s, value):
                    yield s_next, {
                        t_next
                        for mid in spec.inputs[port].fire(t, value)
                        for t_next in tau_closure(mid)
                    }
        for port, transition in impl.outputs.items():
            for value, s_next in transition.fire(s):
                yield s_next, {
                    t_next
                    for mid in tau_closure(t)
                    for emitted, t_next in spec.outputs[port].fire(mid)
                    if emitted == value
                }
        for s_next in impl.internal_steps(s):
            yield s_next, tau_closure(t)

    arena: dict = {}
    todo = [(s0, t0) for s0 in impl.init for t0 in spec.init]
    while todo:
        pair = todo.pop()
        if pair not in arena:
            arena[pair] = list(moves(*pair))
            todo.extend((s_next, t) for s_next, ts in arena[pair] for t in ts)
    related = set(arena)
    changed = True
    while changed:
        lost = {
            pair
            for pair in related
            if any(all((s_next, t) not in related for t in ts) for s_next, ts in arena[pair])
        }
        related -= lost
        changed = bool(lost)
    return set(arena), related


class TestSatModelIsTheGreatestRelation:
    """The τ-closure encoding against a literal fixpoint of the diagrams.

    The greatest model of the formula, read on its pair variables, must be
    exactly the greatest relation over the product arena, in both
    directions of a rewrite (the reverse often fails, so the relation is
    then a proper subset of the arena).
    """

    @seed(36)
    @given(
        elastic_graphs(),
        st.lists(st.sampled_from(range(len(NORMALIZERS))), max_size=4),
        st.integers(1, 2),
        st.integers(1, 3),
    )
    @settings(max_examples=20, deadline=None)
    def test_pair_model_equals_naive_fixpoint(self, graph, rule_choice, impl_cap, spec_cap):
        env = default_environment(capacity=impl_cap)
        rules = [NORMALIZERS[i]() for i in sorted(set(rule_choice))]
        rewritten = RewriteEngine().apply_exhaustively(graph, rules, max_steps=64)
        impl = denote(rewritten.lower(), env)
        spec = denote(graph.lower(), env.with_capacity(spec_cap))
        for left, right in ((impl, spec), (spec, impl)):
            stimuli = _normalise_stimuli(left, uniform_stimuli(left, (0,)))
            cache = _GameCache(left, right, stimuli)
            formula, pairs, _, truncated = encode_refinement(left, right, stimuli, cache=cache)
            assert not truncated
            if len(pairs) > 1_000:  # the literal fixpoint is slow; most arenas are smaller
                continue
            arena, related = naive_greatest_relation(left, right, stimuli)
            states = [
                (cache.impl_table.state(s), cache.spec_table.state(t)) for s, t in pairs
            ]
            assert set(states) == arena
            result = solve(formula)
            holds = all(any((s0, t0) in related for t0 in right.init) for s0 in left.init)
            assert result.satisfiable == holds
            if holds:
                model = result.model
                assert {
                    pair for pair, v in zip(states, formula.pair_vars) if model[v]
                } == related
