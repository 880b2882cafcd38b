"""Session facade: equivalence, caching, loop marks, the result protocol."""

import numpy as np
import pytest

from repro.api import Session
from repro.benchmarks import matvec
from repro.components import default_environment
from repro.errors import GraphitiError
from repro.eval.runner import FLOWS, FlowResult, run_flow
from repro.hls.frontend import LoopMark, compile_program
from repro.hls.ir import BinOp, DoWhile, Kernel, Load, OuterLoop, Program, StoreOp, UnOp, Var
from repro.results import as_dict, summarize
from repro.rewriting.rules.combine import mux_combine


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
    def test_run_flow_matches_session_bench_on_full_matrix(self):
        combined = Session(jobs=1, use_cache=False).bench(name="matvec", program=matvec(5))
        for flow in FLOWS:
            single = run_flow("matvec", flow, matvec(5))
            assert single.to_dict() == combined[flow].to_dict()

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
        assert cold.metrics().executed == len(FLOWS)

        warm = Session(jobs=1, cache_dir=tmp_path)
        second = warm.report(["matvec"], {"matvec": matvec(5)})
        assert second == first
        assert warm.metrics().executed == 0
        assert warm.metrics().hits == len(FLOWS)

    def test_program_edit_invalidates_cache(self, tmp_path):
        Session(cache_dir=tmp_path).bench(name="matvec", program=matvec(5))
        edited = matvec(5)
        edited.arrays["x"][0] += 1.0
        session = Session(cache_dir=tmp_path)
        session.bench(name="matvec", program=edited)
        assert session.metrics().executed == len(FLOWS)

    def test_obligations_are_certified_through_the_cache(self, tmp_path):
        specs = [("repro.rewriting.rules.combine", "mux_combine", {})]
        [first] = Session(cache_dir=tmp_path).check_obligations(specs)
        assert first["holds"] and first["mode"] == "search"

        # A warm run rechecks the stored certificate instead of trusting a
        # verdict: same evidence, no game.
        [second] = Session(cache_dir=tmp_path).check_obligations(specs)
        assert second["holds"] and second["mode"] == "recheck"
        assert second["certificate_hashes"] == first["certificate_hashes"]

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
        result = run_flow("matvec", "Vericert", matvec(4))
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

    def test_refinement_report_protocol(self):
        from repro.refinement.checker import check_rewrite_obligation

        lhs, rhs, env, stimuli = next(mux_combine().obligation())
        report = check_rewrite_obligation(lhs, rhs, env, stimuli)
        data = as_dict(report)
        assert data["kind"] == "RefinementReport" and data["holds"]
        assert data["mode"] == "search"
        assert data["certificate_hash"] == report.certificate.content_hash()
        assert data["relation_size"] == len(report.certificate.relation)
        assert "refinement holds [search]" in summarize(report)

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
        assert snapshot.units == len(FLOWS)
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

    def test_bare_graph_requires_kernel(self):
        program, ck, session = self.make()
        with pytest.raises(ValueError, match="kernel"):
            session.simulate(graph_or_kernel=ck.graph, stimuli=program.arrays)
        stats = session.simulate(
            graph_or_kernel=ck.graph, kernel=ck.kernel, stimuli=program.arrays
        )
        assert stats.cycles > 0
