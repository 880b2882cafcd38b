"""The SAT oracle: dual-Horn solver correctness and oracle/game agreement.

Three layers: the dual-Horn propagator is checked against brute force on
small random formulas, the refinement encoding is checked against the
weak-simulation game on every library-rule obligation — including the
two rules whose obligations genuinely fail — and the cross-check, which
shares one successor cache between the two procedures, is checked to
decide exactly what each procedure decides on its own.  The encoding's
verdicts are pinned at four pair bounds, and since it applies the
diagrams itself, a game diagram mistaken on purpose must make the
cross-check raise.
"""

import itertools
import random

import pytest

from repro.core.module import InputTransition, InternalTransition, Module, OutputTransition
from repro.core.ports import IOPort
from repro.core.semantics import denote
from repro.errors import NotDualHornError, OracleDisagreement
from repro.refinement import sat
from repro.refinement.checker import uniform_stimuli
from repro.refinement.sat import (
    DEFAULT_BOUND,
    CnfFormula,
    check_refinement_sat,
    cross_check_obligation,
    encode_refinement,
    solve,
)
from repro.refinement.simulation import _GameCache, _normalise_stimuli, find_weak_simulation
from repro.rewriting.rules import VERIFY_FACTORY_SPECS, build_rewrite


def formula_of(num_vars, clauses):
    f = CnfFormula()
    for _ in range(num_vars):
        f.new_var()
    for clause in clauses:
        f.add_clause(clause)
    return f


def satisfies(model, clauses):
    return all(
        any(model[abs(lit)] == (lit > 0) for lit in clause) for clause in clauses
    )


# -- the dual-Horn solver -------------------------------------------------------


def test_empty_formula_is_sat():
    result = solve(formula_of(0, []))
    assert result.satisfiable and result.model == [False]


def test_empty_clause_is_unsat():
    assert not solve(formula_of(2, [[1], []])).satisfiable


def test_unit_contradiction_is_unsat():
    assert not solve(formula_of(1, [[1], [-1]])).satisfiable


def test_model_satisfies_every_clause():
    clauses = [[1, 2], [-1, 2], [-2, 3], [1, -3]]
    result = solve(formula_of(3, clauses))
    assert result.satisfiable
    assert satisfies(result.model, clauses)


def test_unsat_only_through_a_chain_of_propagations():
    # (¬1) forces 1 false, which empties the body of (¬2 ∨ 1), and so on
    # along the chain until the headless clause (5 ∨ 6) has no true
    # literal left; 6 falls only once both 4 and 5 have.  Clause order is
    # shuffled so the chain does not follow it.
    clauses = [[1, -2], [2, -3], [-4, 3], [-5, 4], [-6, 4, 5], [5, 6], [-1]]
    for seed in range(5):
        random.Random(seed).shuffle(clauses)
        result = solve(formula_of(6, clauses))
        assert not result.satisfiable
        assert result.model is None
    # without the final headless clause the chain ends in a model
    result = solve(formula_of(6, [c for c in clauses if c != [5, 6]]))
    assert result.satisfiable
    assert result.model == [False] * 7
    assert result.propagations == 6


def test_out_of_range_literal_rejected():
    f = formula_of(2, [])
    with pytest.raises(ValueError, match="outside variable range"):
        f.add_clause([3])
    with pytest.raises(ValueError, match="outside variable range"):
        f.add_clause([0])
    with pytest.raises(ValueError, match="outside variable range"):
        f.add_clause([1, -3])
    assert f.clauses == []


def test_two_negative_literals_rejected():
    f = formula_of(3, [[-1, 2, -1]])  # one negative literal, repeated
    assert f.clauses == [(1, [2])]
    with pytest.raises(NotDualHornError, match="dual-Horn"):
        f.add_clause([1, -2, -3])
    with pytest.raises(ValueError):  # the typed error is still a ValueError
        f.add_clause([-2, -3])
    assert len(f.clauses) == 1


def brute_force_models(num_vars, clauses):
    for bits in itertools.product((False, True), repeat=num_vars):
        model = (False,) + bits
        if satisfies(model, clauses):
            yield model


def test_solver_finds_the_greatest_model_of_random_dual_horn_formulas():
    rng = random.Random(0)
    unsat = 0
    for _ in range(300):
        num_vars = rng.randint(1, 8)
        clauses = []
        for _ in range(rng.randint(1, 14)):
            clause = [rng.randint(1, num_vars) for _ in range(rng.randint(0, 3))]
            if rng.random() < 0.7:  # the one negative literal, anywhere
                clause.insert(rng.randint(0, len(clause)), -rng.randint(1, num_vars))
            clauses.append(clause)
        result = solve(formula_of(num_vars, clauses))
        models = list(brute_force_models(num_vars, clauses))
        assert result.satisfiable == bool(models), clauses
        if not models:
            unsat += 1
            continue
        # dual-Horn models are closed under union, so the greatest one is
        # the union of all of them
        greatest = [any(model[v] for model in models) for v in range(num_vars + 1)]
        assert result.model == greatest, clauses
    assert 0 < unsat < 300


# -- the refinement encoding --------------------------------------------------


def obligations_of(factory):
    [spec] = [s for s in VERIFY_FACTORY_SPECS if s[1] == factory]
    rewrite = build_rewrite(*spec)
    return list(rewrite.obligation())


def test_positive_obligation_holds_definitively():
    lhs, rhs, env, stimuli = obligations_of("mux_combine")[0]
    verdict = cross_check_obligation(lhs, rhs, env, stimuli).sat
    assert verdict.holds and verdict.complete and verdict.definitive
    assert verdict.relation_size >= 1
    assert verdict.pairs_explored > 0
    assert "holds" in verdict.summary()


def test_negative_obligation_fails_definitively():
    lhs, rhs, env, stimuli = obligations_of("branch_combine")[0]
    verdict = cross_check_obligation(lhs, rhs, env, stimuli).sat
    assert not verdict.holds
    assert verdict.definitive  # UNSAT is definitive even under a bound
    assert verdict.relation_size is None
    assert "fails" in verdict.summary()


def test_truncated_bound_is_indefinite_and_never_disagrees():
    lhs, rhs, env, stimuli = obligations_of("mux_combine")[0]
    verdict = cross_check_obligation(lhs, rhs, env, stimuli, bound=10).sat
    assert verdict.holds  # optimistically unconstrained beyond the bound
    assert not verdict.complete
    assert not verdict.definitive
    assert "up to bound" in verdict.summary()
    # an indefinite verdict is agreement-by-default: no raise
    report = cross_check_obligation(lhs, rhs, env, stimuli, bound=10)
    assert report.agreed


def test_encoding_is_dual_horn():
    lhs, rhs, env, stimuli = obligations_of("mux_combine")[0]
    impl = denote(rhs.lower(), env)
    spec = denote(lhs.lower(), env.with_capacity(4))
    formula, pairs, explored, truncated = encode_refinement(impl, spec, stimuli)
    assert not truncated
    assert explored == len(pairs) == len(formula.pair_vars) > 0
    assert len(set(pairs)) == len(pairs)
    assert len(set(formula.pair_vars)) == len(pairs)
    # every other variable is an auxiliary τ-closure variable
    assert formula.num_vars > len(pairs)
    # (head, body): at most one negative literal, the rest positive
    for head, body in formula.clauses:
        assert 0 <= head <= formula.num_vars
        assert all(1 <= v <= formula.num_vars for v in body)


def test_the_encoder_walks_tau_steps_itself(monkeypatch):
    # The encoder reads one-step successors only; the game's τ-walks and
    # diagram responses are off limits, so it cannot inherit their mistakes.
    def refused(*args, **kwargs):
        raise AssertionError("the SAT encoder read a game diagram")

    for name in (
        "responders", "lazy_responders", "closure", "tau_walk", "_input_diagram",
        "_output_diagram", "spec_input_responses", "spec_output_responses",
    ):
        monkeypatch.setattr(_GameCache, name, refused)
    for factory in ("mux_combine", "ooo_loop"):
        lhs, rhs, env, stimuli = obligations_of(factory)[0]
        impl = denote(rhs.lower(), env)
        spec = denote(lhs.lower(), env.with_capacity(4))
        assert check_refinement_sat(impl, spec, stimuli).holds


def test_sat_oracle_agrees_with_game_on_every_library_obligation():
    failing_rules = set()
    checked = 0
    for spec in VERIFY_FACTORY_SPECS:
        rewrite = build_rewrite(*spec)
        if rewrite.obligation is None:
            continue
        for lhs, rhs, env, stimuli in rewrite.obligation():
            report = cross_check_obligation(lhs, rhs, env, stimuli)
            checked += 1
            assert report.agreed
            assert report.sat.definitive
            assert report.sat.holds == report.game_holds
            if not report.game_holds:
                failing_rules.add(rewrite.name)
    assert checked >= 10
    # exactly the two rules the paper's checker refuses to certify
    assert failing_rules == {"branch-combine", "join-split-elim"}


def test_default_bound_covers_every_library_obligation():
    # guard against a library rewrite outgrowing the definitive regime
    largest = 0
    for spec in VERIFY_FACTORY_SPECS:
        rewrite = build_rewrite(*spec)
        if rewrite.obligation is None:
            continue
        for lhs, rhs, env, stimuli in rewrite.obligation():
            verdict = cross_check_obligation(lhs, rhs, env, stimuli).sat
            assert verdict.definitive
            largest = max(largest, verdict.pairs_explored)
    assert largest * 2 < DEFAULT_BOUND


# -- one successor cache per cross-check ---------------------------------------


def library_obligations():
    for spec in VERIFY_FACTORY_SPECS:
        rewrite = build_rewrite(*spec)
        if rewrite.obligation is not None:
            for index, obligation in enumerate(rewrite.obligation()):
                yield f"{rewrite.name}[{index}]", obligation


def game_outcome(result):
    if result.holds:
        return result.certificate.content_hash()
    return result.violation


def sat_fields(verdict):
    return (
        verdict.holds,
        verdict.complete,
        verdict.definitive,
        verdict.pairs_explored,
        verdict.variables,
        verdict.clauses,
        verdict.relation_size,
    )


#: Per library obligation and bound (10, 100, 1,000, DEFAULT_BOUND):
#: ``(holds, complete, pairs_explored, relation_size)``.  The τ-closure
#: encoding must leave every one of these as the per-response encoding
#: had them, truncated bounds included.
PINNED = {
    "mux-combine[0]": (
        (True, False, 10, 48),
        (True, False, 100, 155),
        (True, False, 1000, 1667),
        (True, True, 6976, 6976),
    ),
    "merge-combine[0]": (
        (True, False, 10, 17),
        (True, False, 100, 154),
        (True, True, 448, 448),
        (True, True, 448, 448),
    ),
    "branch-combine[0]": (
        (True, False, 10, 28),
        (True, False, 100, 212),
        (False, False, 1000, None),
        (False, True, 3096, None),
    ),
    "split-join-elim[0]": ((True, True, 5, 5),) * 4,
    "join-split-elim[0]": ((False, True, 9, None),) * 4,
    "fork-sink-elim[0]": (
        (True, False, 10, 14),
        (True, True, 63, 47),
        (True, True, 63, 47),
        (True, True, 63, 47),
    ),
    "pure-id-elim[0]": ((True, True, 5, 5),) * 4,
    "op1-to-pure[0]": ((True, True, 3, 3),) * 4,
    "op2-to-pure[0]": ((True, False, 10, 16),) + ((True, True, 18, 18),) * 3,
    "fork-lift-pure[0]": ((True, False, 10, 20),) + ((True, True, 77, 77),) * 3,
    "fork-to-pure[0]": ((True, False, 10, 19),) + ((True, True, 21, 21),) * 3,
    "pure-compose[0]": ((True, True, 5, 5),) * 4,
    "join-pure-left[0]": ((True, False, 10, 16),) + ((True, True, 16, 16),) * 3,
    "join-pure-right[0]": ((True, False, 10, 16),) + ((True, True, 16, 16),) * 3,
    "split-pure-left[0]": ((True, False, 10, 32),) + ((True, True, 47, 47),) * 3,
    "split-pure-right[0]": ((True, False, 10, 32),) + ((True, True, 47, 47),) * 3,
    "join-assoc[0]": ((True, False, 10, 13),) + ((True, True, 60, 60),) * 3,
    "join-swap[0]": ((True, True, 8, 8),) * 4,
    "ooo-loop[0]": (
        (True, False, 10, 70),
        (True, False, 100, 409),
        (True, False, 1000, 1734),
        (True, True, 19737, 19737),
    ),
}
BOUNDS = (10, 100, 1_000, DEFAULT_BOUND)


@pytest.mark.parametrize("bound", BOUNDS)
def test_verdicts_are_pinned_at_every_bound(bound):
    seen = set()
    for name, (lhs, rhs, env, stimuli) in library_obligations():
        impl = denote(rhs.lower(), env)
        spec = denote(lhs.lower(), env.with_capacity(4))
        verdict = check_refinement_sat(impl, spec, stimuli, bound=bound)
        holds, complete, pairs, relation_size = PINNED[name][BOUNDS.index(bound)]
        assert (verdict.holds, verdict.complete, verdict.pairs_explored) == (
            holds, complete, pairs
        ), name
        assert verdict.definitive == ((not holds) or complete), name
        assert verdict.relation_size == relation_size, name
        seen.add(name)
    assert seen == set(PINNED)


@pytest.mark.parametrize("bound", [10, 100, 1_000, DEFAULT_BOUND])
def test_shared_cache_changes_no_verdict(monkeypatch, bound):
    games = []

    def recording_game(*args, **kwargs):
        assert kwargs["cache"] is not None
        games.append(find_weak_simulation(*args, **kwargs))
        return games[-1]

    monkeypatch.setattr(sat, "find_weak_simulation", recording_game)
    checked = 0
    for name, (lhs, rhs, env, stimuli) in library_obligations():
        impl = denote(rhs.lower(), env)
        spec = denote(lhs.lower(), env.with_capacity(4))
        report = cross_check_obligation(lhs, rhs, env, stimuli, bound=bound)
        alone = check_refinement_sat(impl, spec, stimuli, bound=bound)
        assert sat_fields(report.sat) == sat_fields(alone), name
        game = find_weak_simulation(impl, spec, stimuli)
        assert game_outcome(games[-1]) == game_outcome(game), name
        assert report.game_holds == game.holds, name
        checked += 1
    assert checked == len(games) == 19


def test_a_cache_for_other_modules_is_refused():
    lhs, rhs, env, stimuli = obligations_of("mux_combine")[0]
    impl = denote(rhs.lower(), env)
    spec = denote(lhs.lower(), env.with_capacity(4))
    normalised = _normalise_stimuli(impl, stimuli)
    cache = _GameCache(impl, spec, normalised)
    assert encode_refinement(impl, spec, stimuli, cache=cache)[2] > 0
    for wrong in (
        _GameCache(spec, impl, normalised),
        _GameCache(impl, denote(lhs.lower(), env.with_capacity(4)), normalised),
        _GameCache(impl, spec, uniform_stimuli(impl, (0,))),
    ):
        with pytest.raises(ValueError, match="successor cache"):
            encode_refinement(impl, spec, stimuli, cache=wrong)
        with pytest.raises(ValueError, match="successor cache"):
            find_weak_simulation(impl, spec, stimuli, cache=wrong)


# -- a mistake in the game's diagrams is caught ---------------------------------


def chain_module(emits, accepts, internal=None):
    """A one-leaf module on ``IOPort(0)`` with string states: *emits* is
    ``(state, value, next)``, *accepts* ``(state, value, next)`` and
    *internal* ``(state, next)``; the initial state is *emits*' source."""
    def emit(state):
        if state == emits[0]:
            yield emits[1], emits[2]

    def accept(state, value):
        if (state, value) == accepts[:2]:
            yield accepts[2]

    def step(state):
        if internal is not None and state == internal[0]:
            yield internal[1]

    return Module(
        {IOPort(0): InputTransition(None, accept)},
        {IOPort(0): OutputTransition(None, emit)},
        (InternalTransition("step", step),),
        frozenset({emits[0]}),
    )


def tau_between_output_and_input(monkeypatch):
    """impl ``a -1-> b -x-> c`` against spec ``A -1-> B -τ-> C -x-> D``.

    Matching the output leaves the spec at B, where x is not accepted; the
    internal step to C may neither follow the output nor precede the
    input, so impl ⋢ spec.  Both modules come back from a patched
    ``denote_instance``, so ``cross_check_obligation`` decides exactly them.
    """
    impl = chain_module(("a", 1, "b"), ("b", "x", "c"))
    spec = chain_module(("A", 1, "B"), ("C", "x", "D"), internal=("B", "C"))
    stimuli = {IOPort(0): ("x",)}
    monkeypatch.setattr(sat, "denote_instance", lambda *args: (impl, spec, stimuli))
    return None, None, None, stimuli


def output_then_tau(diagram):
    def mistaken(self, tid, port, value):
        for t in diagram(self, tid, port, value):
            yield from self.tau_walk(t)
    return mistaken


def tau_then_input(diagram):
    def mistaken(self, tid, port, value):
        for mid in self.tau_walk(tid):
            yield from diagram(self, mid, port, value)
    return mistaken


def test_an_internal_step_between_output_and_input_is_refused(monkeypatch):
    report = cross_check_obligation(*tau_between_output_and_input(monkeypatch))
    assert not report.game_holds
    assert not report.sat.holds and report.sat.definitive


@pytest.mark.parametrize(
    "diagram, mistake",
    [("_output_diagram", output_then_tau), ("_input_diagram", tau_then_input)],
)
def test_the_sat_oracle_catches_a_mistaken_game_diagram(monkeypatch, diagram, mistake):
    # The game's own diagram, mistaken to allow τ after an output (or
    # before an input), accepts the instance; the SAT encoder reads only
    # one-step successors, still refuses it, and the cross-check raises.
    obligation = tau_between_output_and_input(monkeypatch)
    monkeypatch.setattr(_GameCache, diagram, mistake(getattr(_GameCache, diagram)))
    impl, spec, stimuli = sat.denote_instance()
    assert find_weak_simulation(impl, spec, stimuli).holds
    with pytest.raises(OracleDisagreement, match="SAT oracle says fails") as raised:
        cross_check_obligation(*obligation)
    assert raised.value.sat_witness.definitive
