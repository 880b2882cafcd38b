"""What each entry point loads: verifying never pays for the evaluation stack.

Every check runs in a fresh interpreter, because an import made by any
other test in this process would hide one made by the code under test.
The code prints the heavy modules it ended up loading; a check fails
when one that path never runs shows up.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
ROOT = str(Path(SRC).parent)

#: Loaded only by transforms, evaluation, simulation and fuzzing.
EVALUATION_STACK = (
    "numpy",
    "repro.hls",
    "repro.sim",
    "repro.eval.runner",
    "repro.rewriting.pipeline",
    "repro.rewriting.egraph",
)


def loaded_after(code: str, watched) -> list[str]:
    """Run *code* in a fresh interpreter; the *watched* modules it loaded."""
    probe = textwrap.dedent(code) + textwrap.dedent(
        f"""
        import json, sys
        print(json.dumps(sorted(m for m in {list(watched)!r} if m in sys.modules)))
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join((SRC, ROOT))},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_session_loads_no_layer_it_has_not_used():
    watched = EVALUATION_STACK + (
        "repro.refinement",
        "repro.service",
        "repro.interop",
        "repro.dot",
        "concurrent.futures",
    )
    code = """
        import repro
        repro.Session(jobs=1, use_cache=False).close()
    """
    assert loaded_after(code, watched) == []


def test_help_loads_no_evaluation_stack():
    code = """
        import contextlib, io
        from repro.cli import build_parser
        with contextlib.redirect_stdout(io.StringIO()) as out:
            try:
                build_parser().parse_args(["--help"])
            except SystemExit as exc:
                assert exc.code == 0
        assert "refine" in out.getvalue()
    """
    watched = ("numpy", "repro.eval.runner", "repro.hls", "repro.sim")
    assert loaded_after(code, watched) == []


def test_verifying_a_rule_loads_no_evaluation_stack():
    code = """
        import repro
        spec = [("repro.rewriting.rules.combine", "mux_combine", {})]
        with repro.Session(jobs=1, use_cache=False) as session:
            [outcome] = session.check_obligations(spec)
            assert outcome["holds"] and outcome["instances"] > 0
            [cross] = session.sat_check(spec)
            assert cross["agreed"] and cross["holds"]
    """
    assert loaded_after(code, EVALUATION_STACK) == []


def test_checking_obligations_loads_no_sat_oracle():
    code = """
        import repro
        spec = [("repro.rewriting.rules.combine", "mux_combine", {})]
        with repro.Session(jobs=1, use_cache=False) as session:
            [outcome] = session.check_obligations(spec)
            assert outcome["holds"]
    """
    assert loaded_after(code, ("repro.refinement.sat",)) == []


def test_transform_of_a_dot_graph_loads_no_numerics(tmp_path):
    from repro.components import default_environment
    from repro.dot import print_dot
    from repro.hls.frontend import compile_program
    from repro.hls.ir import BinOp, DoWhile, Kernel, Load, OuterLoop, Program, StoreOp, UnOp, Var

    loop = DoWhile(
        "gcd", ("a", "b"), {"a": Var("b"), "b": BinOp("mod", Var("a"), Var("b"))},
        UnOp("ne0", Var("b")), ("a",),
    )
    kernel = Kernel(
        "gcd", loop, (OuterLoop("i", 2),), {"a": Load("x", Var("i")), "b": Load("y", Var("i"))},
        (StoreOp("out", Var("i"), Var("a")),), tags=2,
    )
    program = Program("gcd", {"x": [12, 9], "y": [8, 6], "out": [0, 0]}, [kernel])
    [compiled] = compile_program(program, default_environment()).kernels
    mark = compiled.mark
    dot = tmp_path / "gcd.dot"
    dot.write_text(print_dot(compiled.graph))
    argv = ["transform", str(dot), "-o", str(tmp_path / "out.dot"), "--no-cache"]
    argv += [arg for node in mark.mux_nodes for arg in ("--mux", node)]
    argv += [arg for node in mark.branch_nodes for arg in ("--branch", node)]
    argv += ["--init", mark.init_node, "--cond-fork", mark.cond_fork, "--tags", "2"]
    code = f"""
        import contextlib, io
        from repro.cli import main
        with contextlib.redirect_stderr(io.StringIO()):
            assert main({argv!r}) == 0
    """
    watched = ("numpy", "repro.hls.ir", "repro.hls.frontend", "repro.sim", "repro.eval.runner")
    assert loaded_after(code, watched) == []
    assert "Tagger" in (tmp_path / "out.dot").read_text()


def test_transcoding_a_netlist_loads_no_fuzzer(tmp_path):
    from repro.components import pure
    from repro.core import ExprHigh
    from repro.interop import dumps_netlist

    graph = ExprHigh()
    graph.add_node("inc", pure("incr"))
    graph.mark_input(0, "inc", "in0")
    graph.mark_output(0, "inc", "out0")
    netlist = tmp_path / "g.json"
    netlist.write_text(dumps_netlist(graph, name="g"))
    argv = ["import", str(netlist), "-o", str(tmp_path / "g.v"), "--no-cache"]
    code = f"""
        import contextlib, io
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main({argv!r}) == 0
    """
    watched = ("numpy", "repro.hls.ir", "repro.interop.corpus")
    assert loaded_after(code, watched) == []
    assert "module g" in (tmp_path / "g.v").read_text()


def test_exports_resolve_lazily_to_their_defining_objects():
    code = """
        import importlib, sys

        for package in ("repro", "repro.rewriting", "repro.eval"):
            module = importlib.import_module(package)
            names = [name for name in module.__all__ if name != "__version__"]
            assert not set(names) & set(vars(module)), package  # nothing loaded yet
            for name in names:
                value = getattr(module, name)
                if isinstance(value, type(sys)):
                    assert value is sys.modules[f"{package}.{name}"], name
                else:
                    defining = sys.modules[value.__module__]
                    assert getattr(defining, name) is value, (package, name)
                assert vars(module)[name] is value, name  # cached for the next access
            assert not hasattr(module, "no_such_export")

        # Every export is its defining module's object, renamed ones and
        # constants included.
        for package in ("repro.refinement", "repro.hls", "repro.interop"):
            module = importlib.import_module(package)
            assert not set(module.__all__) & set(vars(module)), package
            for name in module.__all__:
                value = getattr(module, name)
                submodule, _, attribute = module._EXPORTS[name].partition(":")
                defining = importlib.import_module(submodule, package)
                assert getattr(defining, attribute or name) is value, (package, name)
                if hasattr(value, "__module__"):
                    assert value.__module__ == defining.__name__, (package, name)
                assert vars(module)[name] is value, name

        namespace = {}
        exec("from repro import *", namespace)
        import repro
        assert all(namespace[name] is getattr(repro, name) for name in repro.__all__)
    """
    assert loaded_after(code, ()) == []


def test_dir_lists_exports_without_loading_them():
    code = """
        import repro, repro.eval, repro.hls, repro.interop, repro.refinement, repro.rewriting
        for package in (
            repro, repro.eval, repro.hls, repro.interop, repro.refinement, repro.rewriting
        ):
            assert set(package.__all__) <= set(dir(package)), package.__name__
    """
    # The probe imports the repro.hls package itself; none of its modules.
    watched = tuple(m for m in EVALUATION_STACK if m != "repro.hls") + (
        "repro.hls.ir", "repro.hls.frontend", "repro.refinement.simulation",
        "repro.api", "repro.core", "repro.eval.report", "repro.interop.netlist",
    )
    assert loaded_after(code, watched) == []
