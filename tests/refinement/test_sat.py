"""The SAT oracle: dual-Horn solver correctness and oracle/game agreement.

Three layers: the dual-Horn propagator is checked against brute force on
small random formulas, the refinement encoding is checked against the
weak-simulation game on every library-rule obligation — including the
two rules whose obligations genuinely fail — and the cross-check, which
shares one successor cache between the two procedures, is checked to
decide exactly what each procedure decides on its own.
"""

import itertools
import random

import pytest

from repro.core.semantics import denote
from repro.errors import NotDualHornError
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
    with pytest.raises(ValueError, match="outside variable range"):
        f.checked_body([1, 3])
    with pytest.raises(ValueError, match="outside variable range"):
        f.checked_body([0, 2])
    assert f.checked_body([2, 1]) == [2, 1]
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
    from repro.core.semantics import denote
    from repro.refinement.checker import uniform_stimuli

    lhs, rhs, env, stimuli = obligations_of("mux_combine")[0]
    impl = denote(rhs.lower(), env)
    spec = denote(lhs.lower(), env.with_capacity(4))
    formula, pairs, explored, truncated = encode_refinement(impl, spec, stimuli)
    assert not truncated
    assert explored == len(pairs) == formula.num_vars > 0
    assert len(set(pairs)) == len(pairs)
    # (head, body): at most one negative literal, the rest positive
    for head, body in formula.clauses:
        assert 0 <= head <= formula.num_vars
        assert all(1 <= v <= formula.num_vars for v in body)


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
