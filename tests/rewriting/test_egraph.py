"""Tests for the e-graph oracle (the egg substitute of section 3.2)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.components import default_environment
from repro.rewriting import algebra
from repro.rewriting.egraph import (
    RULES,
    EGraph,
    parse_term,
    render_term,
    saturate,
    simplify,
    simplify_with_log,
    term_size,
)

#: The loop-body terms the region purifier composes for the paper's kernels
#: (bicg is refused; mvt has two loops), with the oracle's extracted term.
#: These bodies are already minimal under the pairing laws, so the oracle
#: must hand each back unchanged.
KERNEL_BODIES = json.loads((Path(__file__).parent / "kernel_bodies.json").read_text())

#: The budget :func:`repro.rewriting.purify.compose_region` gives the oracle.
PURIFY_BUDGET = {"iterations": 6, "node_limit": 3_000}

KERNEL_CASES = [
    pytest.param(case["body"], case["simplified"], PURIFY_BUDGET, id=f"{case['kernel']}-{case['loop']}")
    for case in KERNEL_BODIES
]


class TestTermSyntax:
    @pytest.mark.parametrize(
        "text",
        ["id", "tup(mod)", "comp(a,b)", "par(comp(a,b),first(c))", "comp(dup,par(fst,snd))"],
    )
    def test_parse_render_round_trip(self, text):
        assert render_term(parse_term(text)) == text

    def test_term_size(self):
        assert term_size(parse_term("id")) == 1
        assert term_size(parse_term("comp(a,b)")) == 3


class TestEGraphCore:
    def test_hashcons_shares_subterms(self):
        eg = EGraph()
        a = eg.add_term(parse_term("comp(x,y)"))
        b = eg.add_term(parse_term("comp(x,y)"))
        assert eg.find(a) == eg.find(b)

    def test_union_merges_classes(self):
        eg = EGraph()
        a = eg.add_term(parse_term("a"))
        b = eg.add_term(parse_term("b"))
        assert eg.find(a) != eg.find(b)
        eg.union(a, b)
        assert eg.find(a) == eg.find(b)

    def test_congruence_closure(self):
        eg = EGraph()
        fa = eg.add_term(parse_term("first(a)"))
        fb = eg.add_term(parse_term("first(b)"))
        a = eg.add_term(parse_term("a"))
        b = eg.add_term(parse_term("b"))
        eg.union(a, b)
        eg.rebuild()
        assert eg.find(fa) == eg.find(fb)

    def test_extract_returns_smallest(self):
        eg = EGraph()
        big = eg.add_term(parse_term("comp(comp(a,id),id)"))
        small = eg.add_term(parse_term("a"))
        eg.union(big, small)
        eg.rebuild()
        assert render_term(eg.extract(big)) == "a"


class TestSimplification:
    @pytest.mark.parametrize(
        "before,after,budget",
        [
            ("comp(dup,par(fst,snd))", "id", {}),  # Join of a Split disappears
            ("comp(id,comp(tup(mod),id))", "tup(mod)", {}),
            ("comp(comp(a,id),comp(id,b))", "comp(a,b)", {}),
            ("first(id)", "id", {}),
            ("comp(swap,swap)", "id", {}),
            ("comp(dup,fst)", "id", {}),  # Split of a Join, left projection
            ("comp(dup,snd)", "id", {}),
            ("comp(comp(dup,par(f,g)),fst)", "f", {}),  # project a fanout
            ("comp(dup,par(comp(fst,f),comp(snd,g)))", "par(f,g)", {}),
        ]
        + KERNEL_CASES,
    )
    def test_simplifies(self, before, after, budget):
        assert simplify(before, **budget) == after

    def test_irreducible_terms_survive(self):
        assert simplify("comp(dup,par(f,g))") == "comp(dup,par(f,g))"

    def test_simplification_preserves_semantics(self):
        env = default_environment()
        cases = [
            ("comp(comp(dup,par(incr,ne0)),fst)", 3),
            ("comp(dup,par(comp(fst,incr),comp(snd,incr)))", (1, 2)),
            ("comp(id,comp(incr,id))", 7),
        ]
        for term, arg in cases:
            original = algebra.ensure(env, term)
            reduced = algebra.ensure(env, simplify(term))
            assert original(arg) == reduced(arg)

    def test_simplified_is_never_larger(self):
        terms = [
            "comp(dup,par(fst,snd))",
            "comp(comp(a,b),comp(c,d))",
            "par(first(x),second(y))",
        ]
        for term in terms:
            assert term_size(parse_term(simplify(term))) <= term_size(parse_term(term))
        for case in KERNEL_BODIES:
            simplified = simplify(case["body"], **PURIFY_BUDGET)
            assert term_size(parse_term(simplified)) <= term_size(parse_term(case["body"]))


def _wide_body(depth: int) -> str:
    """A composed body over integer pairs that doubles at every level."""
    term = "id"
    for _ in range(depth):
        term = (
            f"comp(dup,par(comp(comp({term},first(incr)),tup(add)),"
            f"comp(comp({term},swap),tup(sub))))"
        )
    return term


def _pattern_nodes(pattern) -> int:
    if pattern[0] == "var":
        return 0
    if pattern[0] == "sym":
        return 1
    return 1 + sum(_pattern_nodes(child) for child in pattern[1:])


class TestNodeBudget:
    LIMIT = 300

    def test_saturation_stops_growing_past_the_limit(self):
        body = parse_term(_wide_body(3))
        bounded, roomy = EGraph(), EGraph()
        bounded.add_term(body)
        roomy.add_term(body)
        saturate(bounded, iterations=6, node_limit=self.LIMIT)
        saturate(roomy, iterations=6, node_limit=10 * self.LIMIT)
        # The budget is checked before every rule application, so the last
        # one may overshoot by at most one right-hand side.
        overshoot = max(_pattern_nodes(side) for _, lhs, rhs in RULES for side in (lhs, rhs))
        assert len(bounded) <= self.LIMIT + overshoot
        assert len(roomy) > 5 * self.LIMIT  # the budget, not saturation, stopped it

    def test_budgeted_result_is_equivalent_and_no_larger(self):
        env = default_environment()
        body = _wide_body(3)
        simplified, log = simplify_with_log(body, iterations=6, node_limit=self.LIMIT)
        assert log
        assert term_size(parse_term(simplified)) <= term_size(parse_term(body))
        for sample in [(3, 5), (0, -2), (7, 7)]:
            assert algebra.ensure(env, simplified)(sample) == algebra.ensure(env, body)(sample)


_DETERMINISM_SCRIPT = """
import json, sys
from repro.rewriting.egraph import simplify_with_log
request = json.load(sys.stdin)
json.dump([simplify_with_log(body, **request["budget"]) for body in request["bodies"]], sys.stdout)
"""


def test_rule_log_is_independent_of_the_hash_seed():
    """E-classes are insertion-ordered, so no set order leaks into the log."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    request = json.dumps({"bodies": [case["body"] for case in KERNEL_BODIES], "budget": PURIFY_BUDGET})
    outputs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SCRIPT],
            input=request, capture_output=True, text=True, env=env, check=True,
        )
        outputs.append(json.loads(run.stdout))
    assert outputs[0] == outputs[1] == outputs[2]
    assert [term for term, _ in outputs[0]] == [case["simplified"] for case in KERNEL_BODIES]
