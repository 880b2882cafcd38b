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

        namespace = {}
        exec("from repro import *", namespace)
        import repro
        assert all(namespace[name] is getattr(repro, name) for name in repro.__all__)
    """
    assert loaded_after(code, ()) == []


def test_dir_lists_exports_without_loading_them():
    code = """
        import repro, repro.eval, repro.rewriting
        for package in (repro, repro.eval, repro.rewriting):
            assert set(package.__all__) <= set(dir(package)), package.__name__
    """
    watched = EVALUATION_STACK + ("repro.api", "repro.core", "repro.eval.report")
    assert loaded_after(code, watched) == []
