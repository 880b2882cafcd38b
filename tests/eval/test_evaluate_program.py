"""One evaluation per program: one compile, one reference run, all flows.

:func:`repro.eval.runner.evaluate_program` is the executor's unit of work
(one per benchmark).  These tests pin what the unit shares across its
flows and what it must not share: every flow starts from the program's
pristine arrays, the caller's arrays are never written, and a refused
GRAPHITI circuit (the DF-IO circuit itself) is not simulated twice.
"""

import numpy as np
import pytest

import repro.eval.runner as runner
import repro.hls.static_sched as static_sched
from repro import Session
from repro.benchmarks import load_benchmark, matvec
from repro.eval.runner import DATAFLOW_FLOWS, FLOWS, evaluate_program
from repro.hls.ir import BinOp, Const, DoWhile, Kernel, Load, OuterLoop, Program, StoreOp, Var

from ..obs.test_session_metrics import scheduling_independent


def chain_program() -> Program:
    """Each instance's trip count reads ``lim[0]``, which its epilogue
    writes for the next instance: trip counts 1, 3, 3 from ``lim = [1]``,
    but 3, 3, 3 from the ``lim = [3]`` a finished run leaves behind."""
    loop = DoWhile(
        "chain",
        ("n",),
        {"n": BinOp("sub", Var("n"), Const(1))},
        BinOp("lt", Const(0), Var("n")),
        ("n",),
    )
    kernel = Kernel(
        "chain",
        loop,
        (OuterLoop("i", 3),),
        {"n": Load("lim", Const(0))},
        (StoreOp("lim", Const(0), BinOp("add", Var("n"), Const(3))),),
        sequential_outer=True,
    )
    return Program("chain", {"lim": np.ones(1)}, [kernel])


class TestPristineInputs:
    def test_bench_leaves_the_callers_arrays_untouched(self):
        program = load_benchmark("mvt")
        before = program.copy_arrays()
        Session(jobs=1, use_cache=False).bench(name="mvt", program=program)
        assert program.arrays.keys() == before.keys()
        for key, array in before.items():
            assert np.array_equal(program.arrays[key], array), key

    def test_epilogue_written_trip_count_is_the_same_under_any_job_count(self):
        cycles = {}
        for jobs in (1, 2):
            # Two units, so jobs=2 sends them to the pool.
            programs = {"chain": chain_program(), "matvec": matvec(3)}
            with Session(jobs=jobs, use_cache=False) as session:
                result = session.bench_many(["chain", "matvec"], programs)["chain"]
            cycles[jobs] = {flow: result[flow].cycles for flow in FLOWS}
            assert all(result[flow].correct for flow in FLOWS)
        assert cycles[1] == cycles[2]

    def test_every_flow_sees_the_same_inputs_as_when_run_alone(self):
        together, _ = evaluate_program(chain_program())
        for flow in FLOWS:
            alone, _ = evaluate_program(chain_program(), (flow,))
            assert alone[flow].to_dict() == together[flow].to_dict()


def test_cached_result_is_labelled_with_the_requested_name(tmp_path):
    # Equal programs share one cache entry, whichever name stored it.
    programs = {"first": matvec(3), "second": matvec(3)}
    for _ in range(2):  # cold, then warm
        with Session(cache_dir=tmp_path) as session:
            results = session.bench_many(["first", "second"], programs)
        assert {name: result.name for name, result in results.items()} == {
            "first": "first", "second": "second",
        }
    assert session.metrics().hits == 2


class TestOneCompileOneReference:
    def test_one_compile_and_one_reference_run_serve_every_flow(self, monkeypatch):
        calls = {"compile": 0, "reference": 0}

        def counting(kind, fn):
            def wrapper(*args, **kwargs):
                calls[kind] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(runner, "compile_program", counting("compile", runner.compile_program))
        monkeypatch.setattr(runner, "run_program", counting("reference", runner.run_program))
        monkeypatch.setattr(
            static_sched, "run_program", counting("reference", static_sched.run_program)
        )
        result, _ = evaluate_program(load_benchmark("mvt"))
        assert list(result.flows) == list(FLOWS)
        assert calls == {"compile": 1, "reference": 1}

    def test_unknown_flow_rejected(self):
        with pytest.raises(ValueError, match="unknown flow"):
            evaluate_program(matvec(3), ("DF-IO", "ModelSim"))


class TestRefusedGraphitiCircuit:
    def test_bicg_graphiti_reuses_the_df_io_run(self):
        session = Session(use_cache=False)
        result = session.bench(name="bicg")
        df_io, graphiti = result["DF-IO"], result["GRAPHITI"]
        assert graphiti.refused_loops == 1
        assert graphiti.cycles == df_io.cycles
        assert graphiti.area.to_dict() == df_io.area.to_dict()
        assert (graphiti.correct, graphiti.stores_in_order) == (
            df_io.correct, df_io.stores_in_order,
        )
        # DF-IO and DF-OoO only: the refused circuit is not simulated again.
        assert session.metrics().counters["sim.runs"] == 2

    def test_transformed_circuit_is_simulated(self):
        session = Session(use_cache=False)
        result = session.bench(name="matvec", program=matvec(4))
        assert result["GRAPHITI"].refused_loops == 0
        assert session.metrics().counters["sim.runs"] == len(DATAFLOW_FLOWS)


def test_cold_report_counters_are_pinned():
    """One unit per benchmark; bicg's refused GRAPHITI circuit is not
    simulated: 20 runs (mvt has two kernels), not 21."""
    with Session(jobs=1, use_cache=False) as session:
        session.report()
    counters = scheduling_independent(session.metrics().counters)
    assert session.metrics().units == 6
    assert counters["cache.misses"] == 6
    assert counters["sim.runs"] == 20
    assert counters["sim.cycles"] == 358_305
    assert counters["sim.steps"] == 3_614_082
