"""The equality-saturation backend: fingerprints, e-graph, budget, frontier."""

import numpy as np
import pytest

from repro import obs
from repro.components import buffer, default_environment, fork, pure, sink
from repro.core import ExprHigh
from repro.dot import print_dot
from repro.errors import RewriteError, SaturationLimitError
from repro.exec.cache import ResultCache
from repro.hls.area import circuit_cost
from repro.hls.frontend import compile_program
from repro.hls.ir import BinOp, DoWhile, Kernel, Load, OuterLoop, Program, StoreOp, UnOp, Var
from repro.obs.core import Tracer, use_tracer
from repro.rewriting.pipeline import GraphitiPipeline
from repro.rewriting.saturate import (
    STRATEGIES,
    CircuitEGraph,
    SaturationBudget,
    SaturationStats,
    circuit_key,
    extract_pareto,
    replay_derivation,
    saturate_graph,
    saturation_rewrites,
)


def gcd_program(n=2):
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
        (OuterLoop("i", n),),
        {"a": Load("x", Var("i")), "b": Load("y", Var("i"))},
        (StoreOp("out", Var("i"), Var("a")),),
        tags=2,
    )
    return Program(
        "gcd",
        {
            "x": np.array([12, 9][:n]),
            "y": np.array([8, 6][:n]),
            "out": np.zeros(n),
        },
        [kernel],
    )


@pytest.fixture(scope="module")
def compiled_gcd():
    env = default_environment()
    return env, compile_program(gcd_program(), env).kernels[0]


def chain_graph(names):
    """pure(incr) -> buffer -> fork -> (sink, out) with the given node names."""
    p, b, f, s = names
    graph = ExprHigh()
    graph.add_node(p, pure("incr"))
    graph.add_node(b, buffer(slots=1))
    graph.add_node(f, fork(2))
    graph.add_node(s, sink())
    graph.connect(p, "out0", b, "in0")
    graph.connect(b, "out0", f, "in0")
    graph.connect(f, "out0", s, "in0")
    graph.mark_input(0, p, "in0")
    graph.mark_output(0, f, "out1")
    graph.validate()
    return graph


class TestCircuitKey:
    def test_stable_across_calls(self):
        graph = chain_graph(["p", "b", "f", "s"])
        assert circuit_key(graph) == circuit_key(graph)

    def test_independent_of_node_names(self):
        a = chain_graph(["p", "b", "f", "s"])
        b = chain_graph(["alpha", "beta", "gamma", "delta"])
        assert circuit_key(a) == circuit_key(b)

    def test_discriminates_structure(self):
        graph = chain_graph(["p", "b", "f", "s"])
        other = chain_graph(["p", "b", "f", "s"])
        other.nodes["p"] = pure("id")  # same shape, different operator
        other._rebuild_indexes()
        assert circuit_key(graph) != circuit_key(other)

    def test_discriminates_io_marking(self, compiled_gcd):
        _, ck = compiled_gcd
        pipeline = GraphitiPipeline(default_environment())
        transformed = pipeline.transform_kernel(ck.graph, ck.mark)
        assert circuit_key(ck.graph) != circuit_key(transformed.graph)


class TestCircuitEGraph:
    def test_same_circuit_interns_to_same_root(self):
        egraph = CircuitEGraph()
        graph = chain_graph(["p", "b", "f", "s"])
        renamed = chain_graph(["x1", "x2", "x3", "x4"])
        first = egraph.add_circuit(graph)
        enodes = egraph.enodes
        second = egraph.add_circuit(renamed)
        assert egraph.find(first) == egraph.find(second)
        assert egraph.enodes == enodes  # hash-consed: nothing new interned

    def test_different_circuits_get_distinct_roots(self):
        egraph = CircuitEGraph()
        graph = chain_graph(["p", "b", "f", "s"])
        other = chain_graph(["p", "b", "f", "s"])
        other.nodes["p"] = pure("id")
        other._rebuild_indexes()
        assert egraph.find(egraph.add_circuit(graph)) != egraph.find(
            egraph.add_circuit(other)
        )

    def test_union_merges_classes(self):
        egraph = CircuitEGraph()
        a = egraph.add_circuit(chain_graph(["p", "b", "f", "s"]))
        other = chain_graph(["p", "b", "f", "s"])
        other.nodes["p"] = pure("id")
        other._rebuild_indexes()
        b = egraph.add_circuit(other)
        egraph.union(a, b)
        assert egraph.find(a) == egraph.find(b)
        assert egraph.eclasses > 0


class TestSaturationBudget:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="on_exhausted"):
            SaturationBudget(on_exhausted="bogus")

    def test_error_policy_raises_on_exhaustion(self, compiled_gcd):
        _, ck = compiled_gcd
        budget = SaturationBudget(max_states=3, on_exhausted="error")
        with pytest.raises(SaturationLimitError, match="state budget"):
            saturate_graph(ck.graph, saturation_rewrites(), budget=budget)

    def test_partial_policy_returns_partial_exploration(self, compiled_gcd):
        _, ck = compiled_gcd
        budget = SaturationBudget(max_states=3, on_exhausted="partial")
        states, _, stats = saturate_graph(
            ck.graph, saturation_rewrites(), budget=budget
        )
        assert stats.budget_exhausted
        assert 1 <= len(states) <= 3
        assert extract_pareto(states)  # a partial frontier is still a frontier

    def test_iteration_budget_trips(self, compiled_gcd):
        _, ck = compiled_gcd
        budget = SaturationBudget(max_iterations=1, on_exhausted="error")
        with pytest.raises(SaturationLimitError, match="iteration budget"):
            saturate_graph(ck.graph, saturation_rewrites(), budget=budget)


class TestStrategySeam:
    def test_unknown_strategy_raises(self):
        with pytest.raises(RewriteError, match="unknown strategy 'bogus'"):
            GraphitiPipeline(default_environment(), strategy="bogus")

    def test_strategies_constant(self):
        assert STRATEGIES == ("fixpoint", "saturate")

    def test_fixpoint_result_dict_has_no_pareto(self, compiled_gcd):
        _, ck = compiled_gcd
        result = GraphitiPipeline(default_environment()).transform_kernel(
            ck.graph, ck.mark
        )
        d = result.to_dict()
        assert d["strategy"] == "fixpoint"
        assert "pareto" not in d and "best_cost" not in d

    def test_saturate_result_dict_carries_frontier(self, compiled_gcd):
        _, ck = compiled_gcd
        result = GraphitiPipeline(
            default_environment(), strategy="saturate"
        ).transform_kernel(ck.graph, ck.mark)
        d = result.to_dict()
        assert d["strategy"] == "saturate"
        assert len(d["pareto"]) == len(result.pareto) >= 2
        assert d["best_cost"] == result.best_cost.to_dict()
        assert d["fixpoint_cost"] == result.fixpoint_cost.to_dict()
        assert d["saturation"]["states"] == result.saturation["states"] > 0


class TestSaturateTransform:
    def test_best_never_worse_than_fixpoint(self, compiled_gcd):
        _, ck = compiled_gcd
        result = GraphitiPipeline(
            default_environment(), strategy="saturate"
        ).transform_kernel(ck.graph, ck.mark)
        assert result.transformed
        assert result.best_cost.time <= result.fixpoint_cost.time
        assert result.best_cost == result.pareto[0].cost or any(
            p.cost == result.best_cost for p in result.pareto
        )

    def test_frontier_is_sorted_and_non_dominated(self, compiled_gcd):
        _, ck = compiled_gcd
        result = GraphitiPipeline(
            default_environment(), strategy="saturate"
        ).transform_kernel(ck.graph, ck.mark)
        costs = [p.cost for p in result.pareto]
        assert costs == sorted(costs, key=lambda c: (c.cycles, c.area))
        for a in costs:
            assert not any(b.dominates(a) for b in costs)

    def test_deterministic_extraction(self, compiled_gcd):
        """Two independent runs extract byte-identical circuits."""
        _, ck = compiled_gcd
        runs = [
            GraphitiPipeline(
                default_environment(), strategy="saturate"
            ).transform_kernel(ck.graph, ck.mark)
            for _ in range(2)
        ]
        first, second = runs
        assert [p.cost for p in first.pareto] == [p.cost for p in second.pareto]
        assert [p.derivation for p in first.pareto] == [
            p.derivation for p in second.pareto
        ]
        for a, b in zip(first.pareto, second.pareto):
            assert print_dot(a.graph) == print_dot(b.graph)

    def test_replay_reproduces_explored_graphs(self, compiled_gcd):
        _, ck = compiled_gcd
        states, _, _ = saturate_graph(
            ck.graph,
            saturation_rewrites(),
            budget=SaturationBudget(max_states=32, max_iterations=64),
        )
        derived = [s for s in states if s.steps and s.seed == 0]
        assert derived
        for state in derived[:5]:
            assert circuit_key(replay_derivation(ck.graph, state.steps)) == state.key

    def test_stats_merge_accumulates(self):
        a = SaturationStats(states=2, rules_fired=3, per_rule={"x": 3})
        b = SaturationStats(states=1, rules_fired=1, per_rule={"x": 1, "y": 1})
        b.budget_exhausted = True
        a.merge(b)
        assert a.states == 3 and a.rules_fired == 4
        assert a.per_rule == {"x": 4, "y": 1}
        assert a.budget_exhausted


class TestCertification:
    def test_points_certified_cold_then_rechecked_warm(self, compiled_gcd, tmp_path):
        _, ck = compiled_gcd
        env = default_environment()
        counters = {}
        for phase in ("cold", "warm"):
            with use_tracer(Tracer()) as tracer:
                pipeline = GraphitiPipeline(
                    env,
                    strategy="saturate",
                    check_obligations=True,
                    cache=ResultCache(tmp_path),
                )
                result = pipeline.transform_kernel(ck.graph, ck.mark)
                counters[phase] = dict(tracer.counters)
            assert result.pareto
            assert all(p.certified for p in result.pareto)
            derived = [p for p in result.pareto if p.derivation]
            assert derived, "need derived points to exercise certification"
        assert counters["cold"].get("saturation.certify_search", 0) > 0
        assert counters["warm"].get("saturation.certify_recheck", 0) > 0
        assert counters["warm"].get("saturation.certify_search", 0) == 0

    def test_uncertified_without_obligation_checking(self, compiled_gcd):
        _, ck = compiled_gcd
        result = GraphitiPipeline(
            default_environment(), strategy="saturate"
        ).transform_kernel(ck.graph, ck.mark)
        assert all(p.certified is None for p in result.pareto)


class TestRefusedKernelSaturates:
    def test_bicg_refusal_still_yields_sound_frontier(self):
        """The pipeline refuses bicg (inter-iteration memory dependency);
        the saturate strategy explores the input with structural rules only,
        which never reorder iterations, so the frontier is still sound."""
        from repro.benchmarks import load_benchmark

        env = default_environment()
        ck = compile_program(load_benchmark("bicg"), env).kernels[0]
        result = GraphitiPipeline(
            env,
            strategy="saturate",
            budget=SaturationBudget(max_states=24, max_iterations=48),
        ).transform_kernel(ck.graph, ck.mark)
        assert not result.transformed and result.refusal is not None
        assert result.pareto
        assert result.best_cost.time <= circuit_cost(ck.graph).time
        assert "refus" in result.summary()


class TestSessionSurface:
    def test_session_transform_saturate_and_metrics(self, tmp_path):
        from repro.api import Session

        session = Session(use_cache=False)
        ck = compile_program(gcd_program(), session.env).kernels[0]
        result = session.transform(graph=ck.graph, mark=ck.mark, strategy="saturate")
        assert result.strategy == "saturate" and len(result.pareto) >= 2
        snapshot = session.metrics()
        assert snapshot.saturation["states"] > 0
        assert snapshot.saturation["frontier"] == len(result.pareto)
        assert "saturation:" in snapshot.summary()
        assert snapshot.from_dict(snapshot.to_dict()).saturation == snapshot.saturation

    def test_session_rejects_unknown_strategy(self):
        from repro.api import Session

        session = Session(use_cache=False)
        ck = compile_program(gcd_program(), session.env).kernels[0]
        with pytest.raises(RewriteError, match="unknown strategy"):
            session.transform(graph=ck.graph, mark=ck.mark, strategy="nope")
