"""Session facade: equivalence, caching, loop marks, the result protocol."""

import numpy as np
import pytest

from repro.api import Session
from repro.benchmarks import matvec
from repro.components import default_environment
from repro.errors import GraphitiError
from repro.eval.runner import FLOWS, FlowResult, evaluate_program
from repro.hls.frontend import LoopMark, compile_program
from repro.hls.ir import BinOp, DoWhile, Kernel, Load, OuterLoop, Program, StoreOp, UnOp, Var
from repro.results import as_dict, summarize


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


class TestFlowEquivalence:
    def test_single_flow_evaluation_matches_session_bench(self):
        combined = Session(jobs=1, use_cache=False).bench(name="matvec", program=matvec(5))
        for flow in FLOWS:
            single, _ = evaluate_program(matvec(5), (flow,))
            assert single[flow].to_dict() == combined[flow].to_dict()

    def test_parallel_report_is_byte_identical_to_serial(self, tmp_path):
        programs = {"matvec": matvec(5), "gsum-single": None}
        from repro.benchmarks import gsum_single

        programs["gsum-single"] = gsum_single(40)
        names = ["matvec", "gsum-single"]
        serial = Session(jobs=1, use_cache=False).report(names, programs)
        parallel = Session(jobs=2, use_cache=False).report(names, programs)
        assert parallel == serial


class TestSessionCaching:
    def test_warm_rerun_recomputes_nothing_and_matches(self, tmp_path):
        programs = {"matvec": matvec(5)}
        cold = Session(jobs=1, cache_dir=tmp_path)
        first = cold.report(["matvec"], programs)
        assert cold.metrics().executed == 1  # one unit per benchmark

        warm = Session(jobs=1, cache_dir=tmp_path)
        second = warm.report(["matvec"], {"matvec": matvec(5)})
        assert second == first
        assert warm.metrics().executed == 0
        assert warm.metrics().hits == 1

    def test_program_edit_invalidates_cache(self, tmp_path):
        Session(cache_dir=tmp_path).bench(name="matvec", program=matvec(5))
        edited = matvec(5)
        edited.arrays["x"][0] += 1.0
        session = Session(cache_dir=tmp_path)
        session.bench(name="matvec", program=edited)
        assert session.metrics().executed == 1

    def test_obligations_are_certified_through_the_cache(self, tmp_path):
        specs = [("repro.rewriting.rules.combine", "mux_combine", {})]
        cold = Session(cache_dir=tmp_path)
        [first] = cold.check_obligations(specs)
        assert first["holds"] and first["mode"] == "search"
        cold_counters = cold.metrics().counters
        assert cold_counters.get("refinement.weak_sim_checks", 0) > 0
        assert "refinement.cert_replay_hits" not in cold_counters

        # A warm run rechecks the stored certificate by witness replay
        # instead of trusting a verdict: same evidence, no game.
        warm = Session(cache_dir=tmp_path)
        [second] = warm.check_obligations(specs)
        assert second["holds"] and second["mode"] == "recheck"
        assert second["certificate_hashes"] == first["certificate_hashes"]
        warm_counters = warm.metrics().counters
        assert warm_counters.get("refinement.cert_replay_hits", 0) > 0
        assert "refinement.weak_sim_checks" not in warm_counters

    def test_rewrite_without_obligation_does_not_hold(self):
        from repro.exec.workers import check_obligation_certified

        outcome = check_obligation_certified(
            module="tests.exec.workertasks", factory="rewrite_without_obligation"
        )
        assert (outcome["rewrite"], outcome["holds"], outcome["instances"]) == ("bare", False, 0)
        assert outcome["mode"] == "none"
        assert "has no obligation instances" in outcome["detail"]

    def test_rewrite_with_empty_obligation_does_not_hold(self):
        # An obligation that yields no instance proves nothing: both the
        # certified driver and the SAT cross-check say it does not hold.
        from repro.exec.workers import check_obligation_certified, cross_check_rewrite

        spec = {"module": "tests.exec.workertasks", "factory": "rewrite_with_empty_obligation"}
        outcome = check_obligation_certified(**spec)
        assert (outcome["rewrite"], outcome["holds"], outcome["instances"]) == ("empty", False, 0)
        assert outcome["mode"] == "none"
        assert "has no obligation instances" in outcome["detail"]
        assert cross_check_rewrite(**spec)["holds"] is False

    @pytest.mark.parametrize(
        "factory", ["rewrite_with_empty_obligation", "rewrite_without_obligation"]
    )
    def test_cross_check_without_instances_does_not_agree(self, factory):
        # Nothing was decided by either oracle, so nothing agreed, just as
        # check_obligation_certified proves nothing for such a rewrite.
        from repro.exec.workers import cross_check_rewrite

        outcome = cross_check_rewrite(module="tests.exec.workertasks", factory=factory)
        assert (outcome["agreed"], outcome["holds"], outcome["instances"]) == (False, False, [])
        assert "has no obligation instances" in outcome["detail"]

    def test_removed_obligation_entry_points_stay_removed(self):
        session = Session(use_cache=False)
        for name in ("verify", "check_refinements"):
            assert not hasattr(session, name)


class TestSessionTransform:
    def test_transform_kernel_via_session(self):
        program = gcd_program()
        compiled = compile_program(program, default_environment())
        ck = compiled.kernels[0]
        session = Session(use_cache=False)
        result = session.transform(graph=ck.graph, mark=ck.mark)
        assert result.transformed
        assert "Tagger" in {spec.typ for spec in result.graph.nodes.values()}


class TestLoopMarkFromGraph:
    def make(self):
        program = gcd_program()
        compiled = compile_program(program, default_environment())
        return compiled.kernels[0]

    def test_valid_mark_matches_frontend_mark(self):
        ck = self.make()
        mark = LoopMark.from_graph(
            ck.graph,
            kernel=ck.mark.kernel,
            mux_nodes=ck.mark.mux_nodes,
            branch_nodes=ck.mark.branch_nodes,
            init_node=ck.mark.init_node,
            cond_fork=ck.mark.cond_fork,
            driver=ck.mark.driver,
            collector=ck.mark.collector,
            tags=ck.mark.tags,
            effectful=ck.mark.effectful,
            sequential_outer=ck.mark.sequential_outer,
        )
        assert mark == ck.mark

    def test_unknown_node_raises_graphiti_error(self):
        ck = self.make()
        with pytest.raises(GraphitiError, match="nonexistent"):
            LoopMark.from_graph(
                ck.graph,
                mux_nodes=["nonexistent"],
                branch_nodes=ck.mark.branch_nodes,
                init_node=ck.mark.init_node,
                cond_fork=ck.mark.cond_fork,
            )

    def test_wrong_component_type_raises(self):
        ck = self.make()
        with pytest.raises(GraphitiError, match="expected 'Init'"):
            LoopMark.from_graph(
                ck.graph,
                mux_nodes=ck.mark.mux_nodes,
                branch_nodes=ck.mark.branch_nodes,
                init_node=ck.mark.cond_fork,  # a Fork, not an Init
                cond_fork=ck.mark.cond_fork,
            )

    def test_empty_mux_list_and_bad_tags_raise(self):
        ck = self.make()
        with pytest.raises(GraphitiError):
            LoopMark.from_graph(
                ck.graph,
                mux_nodes=[],
                branch_nodes=ck.mark.branch_nodes,
                init_node=ck.mark.init_node,
                cond_fork=ck.mark.cond_fork,
            )
        with pytest.raises(GraphitiError, match="tag budget"):
            LoopMark.from_graph(
                ck.graph,
                mux_nodes=ck.mark.mux_nodes,
                branch_nodes=ck.mark.branch_nodes,
                init_node=ck.mark.init_node,
                cond_fork=ck.mark.cond_fork,
                tags=0,
            )

    def test_effectful_derived_from_graph(self):
        ck = self.make()  # gcd stores only in the collector epilogue
        mark = LoopMark.from_graph(
            ck.graph,
            mux_nodes=ck.mark.mux_nodes,
            branch_nodes=ck.mark.branch_nodes,
            init_node=ck.mark.init_node,
            cond_fork=ck.mark.cond_fork,
        )
        assert mark.effectful == any(
            spec.typ == "Store" for spec in ck.graph.nodes.values()
        )


class TestResultProtocol:
    def test_flow_result_roundtrip(self):
        result = evaluate_program(matvec(4), ("Vericert",))[0]["Vericert"]
        data = as_dict(result)
        assert data["kind"] == "FlowResult"
        assert FlowResult.from_dict(data).to_dict() == data
        assert "Vericert" in summarize(result)

    def test_transform_result_protocol(self):
        program = gcd_program()
        ck = compile_program(program, default_environment()).kernels[0]
        result = Session(use_cache=False).transform(graph=ck.graph, mark=ck.mark)
        data = as_dict(result)
        assert data["kind"] == "TransformResult" and data["transformed"]
        assert "rewrites" in summarize(result)

    def test_benchmark_result_protocol(self):
        result = Session(use_cache=False).bench(name="matvec", program=matvec(4))
        data = as_dict(result)
        assert data["kind"] == "BenchmarkResult"
        assert set(data["flows"]) == set(FLOWS)

    def test_non_result_rejected(self):
        with pytest.raises(GraphitiError):
            summarize(object())


class TestUnifiedMetrics:
    def test_snapshot_sections_and_protocol(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        session.bench(name="matvec", program=matvec(4))
        snapshot = session.metrics()
        data = as_dict(snapshot)
        assert data["kind"] == "MetricsSnapshot"
        assert set(data) == {"kind", "schema_version", "executor", "rewriting", "counters"}
        assert snapshot.units == 1
        assert "units" in summarize(snapshot)

    def test_transform_counts_roll_into_snapshot(self):
        program = gcd_program()
        ck = compile_program(program, default_environment()).kernels[0]
        session = Session(use_cache=False)
        result = session.transform(graph=ck.graph, mark=ck.mark)
        snapshot = session.metrics()
        assert snapshot.rewrites_applied == result.rewrites_applied
        assert snapshot.per_rewrite  # per-rewrite breakdown is populated
        assert sum(r["applied"] for r in snapshot.per_rewrite.values()) == (
            snapshot.rewrites_applied
        )

    def test_attribute_facade_removed(self):
        """The pre-v1.3 attribute forms are gone: metrics is a plain method."""
        session = Session(use_cache=False)
        method = Session.__dict__["metrics"]
        assert not isinstance(method, property)
        with pytest.raises(AttributeError):
            session.metrics.executed  # bound method has no stats attributes
        assert session.metrics().executed == 0


class TestRemovedShims:
    def test_top_level_run_benchmark_removed(self):
        import repro

        assert not hasattr(repro, "run_benchmark")
        assert "run_benchmark" not in repro.__all__

    @pytest.mark.parametrize(
        ("module", "name"),
        [
            ("repro", "check_refinement"),
            ("repro", "check_graph_refinement"),
            ("repro.refinement", "check_obligation_sat"),
            ("repro.rewriting.rules", "all_rewrites"),
            ("repro.rewriting.rules", "extra"),
            ("repro.core", "unify"),
            ("repro.core.module", "reachable_states"),
            ("repro.core.exprlow", "instance_names"),
            ("repro.core.exprlow", "fresh_instance"),
            ("repro.refinement", "recheck_obligation_certificate"),
            ("repro.refinement.checker", "recheck_obligation_certificate"),
            ("repro.refinement", "looks_binary"),
            ("repro.refinement.codec", "looks_binary"),
            ("repro.hls.ir", "binop_count"),
        ],
    )
    def test_names_without_a_production_caller_removed(self, module, name):
        # docs/api.md's migration table names each replacement (v1.23, v1.25).
        import importlib

        imported = importlib.import_module(module)
        assert not hasattr(imported, name)
        assert name not in getattr(imported, "__all__", ())

    @pytest.mark.parametrize(
        ("owner", "name"),
        [
            ("repro.core.exprhigh:ExprHigh", "rename_node"),
            ("repro.core.exprhigh:ExprHigh", "fresh_name"),
            ("repro.refinement.checker:RefinementReport", "to_dict"),
            ("repro.refinement.checker:RefinementReport", "from_dict"),
            ("repro.refinement.checker:RefinementReport", "detached"),
        ],
    )
    def test_members_without_a_production_caller_removed(self, owner, name):
        import importlib

        module, _, cls = owner.partition(":")
        assert not hasattr(getattr(importlib.import_module(module), cls), name)


class TestSessionSimulate:
    def make(self):
        # compile_program registers the benchmark's array accessors in the
        # environment, so the session must share it.
        env = default_environment()
        program = matvec(4)
        compiled = compile_program(program, env)
        return program, compiled.kernels[0], Session(env, use_cache=False)

    def test_single_stimulus_returns_stats(self):
        program, ck, session = self.make()
        stats = session.simulate(graph_or_kernel=ck, stimuli=program.arrays)
        assert stats.cycles > 0
        assert stats.results_collected == 4
        assert stats.channel_peaks  # populated on success

    def test_batch_identical_across_backends(self):
        program, ck, session = self.make()

        def fresh():
            return {k: v.copy() for k, v in program.arrays.items()}

        from repro.hls.area import latency_of
        from repro.hls.buffers import place_buffers
        from repro.sim.cycle import CycleSimulator

        compiled_runs = session.simulate(graph_or_kernel=ck, stimuli=[fresh(), fresh()])
        capacities = place_buffers(ck.graph, None).capacities
        interp_runs = [
            CycleSimulator(ck.graph, session.env, ck.kernel, fresh(), capacities, latency_of).run()
            for _ in range(2)
        ]
        assert [s.cycles for s in compiled_runs] == [s.cycles for s in interp_runs]
        assert [s.channel_peaks for s in compiled_runs] == [
            s.channel_peaks for s in interp_runs
        ]

    @pytest.mark.parametrize(
        "keyword", ["capacities", "latency_of", "trace", "max_cycles", "deadlock_window"]
    )
    def test_removed_keyword_raises_type_error(self, keyword):
        # Per-run capacities, traces and limits live on BatchRun entries.
        program, ck, session = self.make()
        with pytest.raises(TypeError, match=keyword):
            session.simulate(graph_or_kernel=ck, stimuli=program.arrays, **{keyword: None})

    def test_bare_graph_requires_kernel(self):
        program, ck, session = self.make()
        with pytest.raises(ValueError, match="kernel"):
            session.simulate(graph_or_kernel=ck.graph, stimuli=program.arrays)
        stats = session.simulate(
            graph_or_kernel=ck.graph, kernel=ck.kernel, stimuli=program.arrays
        )
        assert stats.cycles > 0
