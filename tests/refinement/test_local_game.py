"""The local weak-simulation solver: determinism and exploration size.

The solver explores only the positions its chosen responses reach, so the
relation it certifies depends on the order in which responses are tried.
These tests pin that the order is a function of the modules alone (never
of ``PYTHONHASHSEED`` or of the executor pool size), that a refutation
names a stable counterexample,
and that the ``refinement.game_positions`` counter reports the
exploration.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro import Session, obs
from repro.components import buffer, default_environment
from repro.core import ExprHigh
from repro.core.semantics import denote
from repro.refinement import (
    check_refinement_sat,
    find_weak_simulation,
    uniform_stimuli,
)
from repro.rewriting.rules import build_rewrite

_LIBRARY_SCRIPT = """
import json
from repro.core.semantics import denote
from repro.refinement import find_weak_simulation, uniform_stimuli
from repro.rewriting.rules import VERIFY_FACTORY_SPECS, build_rewrite

rows = []
for module, factory, kwargs in VERIFY_FACTORY_SPECS:
    rewrite = build_rewrite(module, factory, kwargs)
    for lhs, rhs, env, stimuli in rewrite.obligation():
        impl = denote(rhs.lower(), env)
        spec = denote(lhs.lower(), env.with_capacity(4))
        if stimuli is None:
            stimuli = uniform_stimuli(impl, (0, 1))
        result = find_weak_simulation(impl, spec, stimuli)
        if result.holds:
            rows.append([rewrite.name, True, result.certificate.content_hash()])
        else:
            rows.append([rewrite.name, False, result.violation.kind, result.violation.detail])
print(json.dumps(rows))
"""


def test_library_certificates_do_not_depend_on_hash_seed():
    src = str(Path(repro.__file__).resolve().parent.parent)
    outputs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _LIBRARY_SCRIPT],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.append(json.loads(run.stdout))
    assert outputs[0] == outputs[1] == outputs[2]
    verdicts = {row[0]: row[1] for row in outputs[0]}
    assert len(verdicts) == 19
    assert sorted(name for name, holds in verdicts.items() if not holds) == [
        "branch-combine", "join-split-elim",
    ]


def _buffer_chain(length: int) -> ExprHigh:
    graph = ExprHigh()
    for i in range(length):
        graph.add_node(f"b{i}", buffer(slots=1))
    for i in range(length - 1):
        graph.connect(f"b{i}", "out0", f"b{i + 1}", "in0")
    graph.mark_input(0, "b0", "in0")
    graph.mark_output(0, f"b{length - 1}", "out0")
    return graph


def test_game_positions_counts_interned_positions():
    env = default_environment(capacity=2)
    impl = denote(_buffer_chain(2).lower(), env)
    spec = denote(_buffer_chain(3).lower(), env)
    stimuli = uniform_stimuli(impl, (0, 1))
    with obs.scoped_tracer() as tracer:
        first = find_weak_simulation(impl, spec, stimuli)
        once = tracer.counters["refinement.game_positions"]
        find_weak_simulation(impl, spec, stimuli)
    assert first.holds
    assert len(first.certificate.relation) <= once
    assert tracer.counters["refinement.game_positions"] == 2 * once
    # The local solver explores no more than the product-reachable arena.
    assert once <= check_refinement_sat(impl, spec, stimuli).pairs_explored


_COMBINE = "repro.rewriting.rules.combine"


def _obligation(factory: str):
    rewrite = build_rewrite(_COMBINE, factory, {})
    lhs, rhs, env, stimuli = next(iter(rewrite.obligation()))
    impl = denote(rhs.lower(), env)
    spec = denote(lhs.lower(), env.with_capacity(4))
    if stimuli is None:
        stimuli = uniform_stimuli(impl, (0, 1))
    return impl, spec, stimuli


def test_refutation_names_a_stable_counterexample():
    impl, spec, stimuli = _obligation("branch_combine")
    violation = find_weak_simulation(impl, spec, stimuli).violation
    assert (violation.kind, violation.detail) == (
        "input", "input io:2='b' has no winning spec response"
    )


def test_certificates_do_not_depend_on_pool_size():
    specs = [(_COMBINE, "mux_combine", {}), (_COMBINE, "branch_combine", {})]
    rows = []
    for jobs in (1, 2):
        with Session(jobs=jobs, use_cache=False) as session:
            rows.append([
                (row["rewrite"], row["holds"], row["certificate_hashes"], row["detail"])
                for row in session.check_obligations(specs)
            ])
    assert rows[0] == rows[1]
    assert [row[:2] for row in rows[0]] == [
        ("mux-combine", True), ("branch-combine", False),
    ]
    assert len(rows[0][0][2]) == 1
