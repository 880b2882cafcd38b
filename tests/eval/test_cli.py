"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.components import default_environment
from repro.dot import parse_dot, print_dot
from repro.hls.frontend import compile_program
from repro.hls.ir import BinOp, Const, DoWhile, Kernel, Load, OuterLoop, Program, StoreOp, UnOp, Var


@pytest.fixture
def loop_dot(tmp_path):
    """A compiled GCD kernel written out as dot, plus its loop mark."""
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
    program = Program(
        "gcd",
        {"x": np.array([12, 9]), "y": np.array([8, 6]), "out": np.zeros(2)},
        [kernel],
    )
    env = default_environment()
    compiled = compile_program(program, env)
    ck = compiled.kernels[0]
    path = tmp_path / "gcd.dot"
    path.write_text(print_dot(ck.graph))
    return path, ck.mark


class TestTransform:
    def test_transform_writes_tagged_graph(self, loop_dot, tmp_path, capsys):
        path, mark = loop_dot
        out = tmp_path / "out.dot"
        code = main(
            [
                "transform",
                str(path),
                "-o",
                str(out),
                "--mux",
                mark.mux_nodes[0],
                "--mux",
                mark.mux_nodes[1],
                "--branch",
                mark.branch_nodes[0],
                "--branch",
                mark.branch_nodes[1],
                "--init",
                mark.init_node,
                "--cond-fork",
                mark.cond_fork,
                "--tags",
                "2",
            ]
        )
        assert code == 0
        result = parse_dot(out.read_text())
        types = {spec.typ for spec in result.nodes.values()}
        assert "Tagger" in types
        assert "Mux" not in types

    def test_transform_refuses_effectful_loop(self, tmp_path, capsys):
        # A graph containing a Store is flagged effectful and refused.
        loop = DoWhile(
            "st",
            ("n", "i"),
            {"n": BinOp("sub", Var("n"), Const(1)), "i": Var("i")},
            BinOp("lt", Const(0), Var("n")),
            ("n",),
            stores=(StoreOp("log", Var("n"), Var("i")),),
        )
        kernel = Kernel("st", loop, (OuterLoop("i", 1),), {"n": Const(2), "i": Var("i")})
        program = Program("st", {"log": np.zeros(4)}, [kernel])
        env = default_environment()
        ck = compile_program(program, env).kernels[0]
        path = tmp_path / "st.dot"
        path.write_text(print_dot(ck.graph))
        code = main(
            [
                "transform",
                str(path),
                "--mux",
                ck.mark.mux_nodes[0],
                "--mux",
                ck.mark.mux_nodes[1],
                "--branch",
                ck.mark.branch_nodes[0],
                "--branch",
                ck.mark.branch_nodes[1],
                "--init",
                ck.mark.init_node,
                "--cond-fork",
                ck.mark.cond_fork,
            ]
        )
        assert code == 2
        assert "refused" in capsys.readouterr().err

    @staticmethod
    def _mark_args(mark):
        args = [arg for node in mark.mux_nodes for arg in ("--mux", node)]
        args += [arg for node in mark.branch_nodes for arg in ("--branch", node)]
        args += ["--init", mark.init_node, "--cond-fork", mark.cond_fork]
        args += ["--driver", mark.driver, "--collector", mark.collector]
        return args + ["--tags", str(mark.tags), "--no-cache"]

    def test_check_discharges_the_library_and_prints_the_same_graph(self, loop_dot, capsys):
        from repro.obs.core import Tracer, scoped_tracer
        from repro.rewriting.rules import VERIFY_FACTORY_SPECS

        path, mark = loop_dot
        args = ["transform", str(path), *self._mark_args(mark)]
        assert main(args) == 0
        plain = capsys.readouterr().out
        with scoped_tracer(Tracer()) as tracer:
            assert main([*args, "--check"]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        assert "error:" not in captured.err
        # One unit per library obligation, the two refuted unverified
        # rewrites included; their refutations do not block the transform.
        assert tracer.counters["executor.serial"] == len(VERIFY_FACTORY_SPECS)
        assert tracer.counters["refinement.weak_sim_checks"] > 0

    def test_check_failure_exits_1_without_a_graph(self, loop_dot, monkeypatch, capsys):
        import repro.api

        monkeypatch.setattr(
            repro.api,
            "VERIFY_FACTORY_SPECS",
            (
                ("repro.rewriting.rules.combine", "mux_combine", {}),
                ("repro.rewriting.rules.combine", "branch_combine", {}),
                ("tests.exec.workertasks", "refuted_but_marked_verified", {}),
            ),
        )
        path, mark = loop_dot
        assert main(["transform", str(path), *self._mark_args(mark), "--check"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith("error: verified rewrite join-split-elim failed: ")

    def test_library_error_exits_1_without_traceback(self, tmp_path, capsys):
        # matvec's body reads an array through a function the front end
        # registers in its own environment; the CLI's fresh one lacks it.
        from repro.benchmarks import load_benchmark

        ck = compile_program(load_benchmark("matvec"), default_environment()).kernels[0]
        path = tmp_path / "matvec.dot"
        path.write_text(print_dot(ck.graph))
        code = main(["transform", str(path), *self._mark_args(ck.mark)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown function 'read.A' and it is not a combinator form\n"

    def test_ill_typed_output_exits_1(self, loop_dot, tmp_path, monkeypatch, capsys):
        from ..rewriting.test_pipeline import make_phase5_ill_typed

        make_phase5_ill_typed(monkeypatch)
        path, mark = loop_dot
        out = tmp_path / "out.dot"
        code = main(["transform", str(path), "-o", str(out), *self._mark_args(mark)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: connection stray_source.out0") and "cannot unify" in err
        assert not out.exists()


class TestBench:
    def test_bench_prints_all_flows(self, capsys, monkeypatch):
        # Shrink the benchmark so the CLI smoke test stays fast.  bench
        # goes through the Session/executor path, whose unit of work is
        # evaluate_program (one benchmark through all four flows).
        import repro.eval.runner as runner
        from repro.benchmarks import matvec

        original = runner.evaluate_program
        monkeypatch.setattr(
            runner,
            "evaluate_program",
            lambda program, *args: original(matvec(6), *args),
        )
        code = main(["bench", "matvec", "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        for flow in ("DF-IO", "DF-OoO", "GRAPHITI", "Vericert"):
            assert flow in out


class TestObservabilityFlags:
    def _transform_args(self, loop_dot, tmp_path, extra):
        path, mark = loop_dot
        return [
            "transform",
            str(path),
            "-o",
            str(tmp_path / "out.dot"),
            "--mux",
            mark.mux_nodes[0],
            "--mux",
            mark.mux_nodes[1],
            "--branch",
            mark.branch_nodes[0],
            "--branch",
            mark.branch_nodes[1],
            "--init",
            mark.init_node,
            "--cond-fork",
            mark.cond_fork,
            "--tags",
            "2",
            "--no-cache",
            *extra,
        ]

    def test_profile_prints_span_tree(self, loop_dot, tmp_path, capsys):
        code = main(self._transform_args(loop_dot, tmp_path, ["--profile"]))
        assert code == 0
        err = capsys.readouterr().err
        assert "transform" in err and "phase:purify" in err
        assert "total" in err and "self" in err  # the tree header
        assert "units" in err  # the metrics summary line

    def test_trace_writes_parseable_jsonl(self, loop_dot, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        code = main(self._transform_args(loop_dot, tmp_path, ["--trace", str(trace)]))
        assert code == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert any(r["name"] == "pipeline:transform" for r in records)
        ids = {r["id"] for r in records}
        assert all(r["parent"] in ids for r in records if r["parent"] is not None)

    def test_trace_with_missing_parent_rejected(self, capsys):
        assert main(["refine", "--trace", "/no/such/dir/trace.jsonl"]) == 2
        assert "--trace parent directory" in capsys.readouterr().err


class TestExecFlagValidation:
    """Bad executor flags exit with code 2 before any work is dispatched."""

    def test_jobs_zero_rejected(self, capsys):
        assert main(["bench", "matvec", "--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_jobs_negative_rejected(self, capsys):
        assert main(["report", "--jobs", "-3"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_cache_dir_with_missing_parent_rejected(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "cache"
        assert main(["refine", "--cache-dir", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "--cache-dir parent directory" in err
        assert str(missing.parent) in err

    def test_cache_dir_with_existing_parent_accepted(self, tmp_path, capsys, monkeypatch):
        # The cache dir itself need not exist — only its parent must.
        import repro.eval.runner as runner
        from repro.benchmarks import matvec

        original = runner.evaluate_program
        monkeypatch.setattr(
            runner,
            "evaluate_program",
            lambda program, *args: original(matvec(6), *args),
        )
        code = main(["bench", "matvec", "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
