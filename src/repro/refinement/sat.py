"""A SAT oracle for refinement verdicts, independent of the game solver.

:func:`repro.refinement.simulation.find_weak_simulation` decides bounded
refinement by *solving the simulation game* on the fly — optimistic
response choices, revised as positions are refuted.  This module decides the same question by a
different route: the existence of a weak simulation over the
product-reachable arena is encoded as propositional satisfiability and
handed to an in-tree DPLL solver with watched literals.  Agreement
between two independently-implemented decision procedures is the point:
:func:`cross_check_obligation` runs both on one rewrite obligation and
raises :class:`~repro.errors.OracleDisagreement` if their *definitive*
verdicts ever contradict.

**The encoding.**  One boolean variable ``r_p`` per product-reachable
pair ``p = (impl state, spec state)``, read as "p is in the simulation
relation".  The clauses say exactly that a relation exists which contains
the initial pairs and is closed under the three simulation diagrams:

* for every implementation initial state ``s0``:
  ``(r_{(s0,t0)} ∨ … )`` over all spec initial states ``t0`` — some
  initial pair must be related;
* for every explored pair ``p`` and every implementation move
  ``s → s'`` whose permitted spec responses are ``{t'_1 … t'_k}``:
  ``(¬r_p ∨ r_{(s',t'_1)} ∨ … ∨ r_{(s',t'_k)})`` — if p is related, some
  response pair must be related too.  A move with *no* permitted
  response contributes the unit clause ``(¬r_p)``.

Every clause has at most one negative literal (the formula is
dual-Horn), so unit propagation alone mirrors the game's refutation of
losing positions; the solver's true-first decision polarity makes the common
(refinement-holds) instance propagate to a model almost decision-free.

**Soundness of the verdicts.**  Exploration stops after *bound* pairs.
Pairs beyond the bound get a variable but no closure clauses — they are
*optimistically unconstrained* (free to be "related").  Hence:

* **UNSAT is always a definitive "fails"**: even with every out-of-bound
  pair granted for free, no relation exists, so none exists outright.
* **SAT with complete exploration is a definitive "holds"**: the model's
  true variables form a genuine weak simulation containing an initial
  pair for every implementation initial state.
* **SAT with truncated exploration is indefinite** ("holds up to the
  bound") and is never allowed to contradict the game checker.

:class:`SatVerdict.definitive` captures exactly this asymmetry, and
:func:`cross_check_obligation` only raises on definitive disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .. import obs
from ..core.environment import Environment
from ..core.exprhigh import ExprHigh
from ..core.module import Module, Value
from ..core.ports import Port
from ..core.semantics import denote
from ..errors import OracleDisagreement
from .checker import uniform_stimuli
from .simulation import (
    SimulationResult,
    _GameCache,
    _interface_violation,
    _normalise_stimuli,
    find_weak_simulation,
)

Stimuli = Mapping[Port, Iterable[Value]]

#: Default pair-exploration bound; comfortably above every library-rule
#: obligation (the largest explores a few tens of thousands of pairs), so
#: in-tree cross-checks are complete and therefore definitive.
DEFAULT_BOUND = 200_000


# -- CNF + DPLL ---------------------------------------------------------------


class CnfFormula:
    """A CNF formula in DIMACS convention: variables are positive ints,
    a literal is ``±var``, a clause is a sequence of literals."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: list[list[int]] = []

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, literals: Iterable[int]) -> None:
        clause = list(literals)
        for lit in clause:
            if lit == 0 or abs(lit) > self.num_vars:
                raise ValueError(f"literal {lit} outside variable range")
        self.clauses.append(clause)


@dataclass
class SatResult:
    """Outcome of :func:`solve`: a model (var → bool, 1-indexed) or UNSAT."""

    satisfiable: bool
    model: list[bool] | None
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0


def solve(formula: CnfFormula) -> SatResult:
    """Decide *formula* by DPLL with two watched literals per clause.

    Chronological backtracking, no clause learning — deliberately simple,
    since the refinement encodings are dual-Horn and resolve almost
    entirely by unit propagation.  Decisions assign **true first**: on a
    dual-Horn formula every non-unit clause keeps a positive literal, so
    the all-true direction is the one that models live in.
    """
    n = formula.num_vars
    assign = [0] * (n + 1)  # 0 unassigned / 1 true / -1 false
    trail: list[int] = []
    decisions = propagations = conflicts = 0

    # Clause lists are mutable: the two watched literals are kept at
    # positions 0 and 1 and swapped into place as watches move.
    clauses: list[list[int]] = []
    watches: dict[int, list[int]] = {}
    units: list[int] = []
    for clause in formula.clauses:
        if not clause:
            return SatResult(False, None)
        if len(clause) == 1:
            units.append(clause[0])
            continue
        ci = len(clauses)
        clauses.append(list(clause))
        watches.setdefault(clause[0], []).append(ci)
        watches.setdefault(clause[1], []).append(ci)

    def value(lit: int) -> int:
        v = assign[lit] if lit > 0 else -assign[-lit]
        return v

    def enqueue(lit: int) -> bool:
        v = value(lit)
        if v == 1:
            return True
        if v == -1:
            return False
        assign[abs(lit)] = 1 if lit > 0 else -1
        trail.append(lit)
        return True

    qhead = 0

    def propagate() -> bool:
        """Drain the trail; returns False on conflict."""
        nonlocal qhead, propagations
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            propagations += 1
            falsified = -lit
            ws = watches.get(falsified)
            if not ws:
                continue
            i = 0
            while i < len(ws):
                ci = ws[i]
                clause = clauses[ci]
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                if value(clause[0]) == 1:
                    i += 1
                    continue
                for k in range(2, len(clause)):
                    if value(clause[k]) != -1:
                        clause[1], clause[k] = clause[k], clause[1]
                        watches.setdefault(clause[1], []).append(ci)
                        ws[i] = ws[-1]
                        ws.pop()
                        break
                else:
                    if not enqueue(clause[0]):
                        return False
                    i += 1
        return True

    for lit in units:
        if not enqueue(lit):
            return SatResult(False, None, decisions, propagations, conflicts + 1)
    if not propagate():
        return SatResult(False, None, decisions, propagations, conflicts + 1)

    # Decision stack entries: [trail length at decision, decided var,
    # flipped?].  search_from is a monotone low-water mark for the next
    # unassigned variable, rewound on backtracking.
    stack: list[list] = []
    search_from = 1

    while True:
        var = 0
        for v in range(search_from, n + 1):
            if assign[v] == 0:
                var = v
                break
        if var == 0:
            model = [False] + [assign[v] == 1 for v in range(1, n + 1)]
            return SatResult(True, model, decisions, propagations, conflicts)
        search_from = var
        decisions += 1
        stack.append([len(trail), var, False])
        enqueue(var)
        while not propagate():
            conflicts += 1
            while stack and stack[-1][2]:
                mark, dvar, _ = stack.pop()
                for lit in trail[mark:]:
                    assign[abs(lit)] = 0
                del trail[mark:]
                search_from = min(search_from, dvar)
            if not stack:
                return SatResult(False, None, decisions, propagations, conflicts)
            frame = stack[-1]
            mark, dvar, _ = frame
            for lit in trail[mark:]:
                assign[abs(lit)] = 0
            del trail[mark:]
            qhead = mark
            search_from = min(search_from, dvar)
            frame[2] = True
            enqueue(-dvar)


# -- the refinement encoding --------------------------------------------------


@dataclass
class SatVerdict:
    """The SAT oracle's answer on one bounded refinement instance.

    ``holds`` is the raw SAT answer (a relation exists, possibly leaning
    on unconstrained out-of-bound pairs); ``complete`` records whether
    exploration covered every product-reachable pair.  Only
    :attr:`definitive` verdicts may be compared against the game checker.
    """

    holds: bool
    complete: bool
    pairs_explored: int
    variables: int
    clauses: int
    #: Winning pairs in the model (None when UNSAT).
    relation_size: int | None = None
    stats: dict = field(default_factory=dict)
    detail: str = ""

    @property
    def definitive(self) -> bool:
        """UNSAT is always definitive; SAT only under complete exploration."""
        return (not self.holds) or self.complete

    def summary(self) -> str:
        verdict = "holds" if self.holds else "fails"
        qualifier = "" if self.definitive else " (up to bound)"
        return (
            f"sat oracle: {verdict}{qualifier} — {self.pairs_explored} pairs, "
            f"{self.variables} vars, {self.clauses} clauses"
        )


def encode_refinement(
    impl: Module,
    spec: Module,
    stimuli: Stimuli,
    bound: int = DEFAULT_BOUND,
) -> tuple[CnfFormula, dict[tuple[int, int], int], int, bool]:
    """Encode ``impl ⊑ spec`` (bounded by *stimuli*) as CNF.

    Returns ``(formula, var_of, explored, truncated)``: *var_of* maps
    product pairs ``(impl id, spec id)`` — ids in a fresh
    :class:`_GameCache` ordering — to DIMACS variables, *explored* counts
    pairs whose closure clauses were emitted, and *truncated* is True when
    the *bound* cut exploration short (see the module docstring for what
    that does to verdict status).
    """
    stimuli = _normalise_stimuli(impl, stimuli)
    cache = _GameCache(impl, spec, stimuli)
    formula = CnfFormula()
    var_of: dict[tuple[int, int], int] = {}
    frontier: list[tuple[int, int]] = []

    def var(sid: int, tid: int) -> int:
        key = (sid, tid)
        v = var_of.get(key)
        if v is None:
            v = formula.new_var()
            var_of[key] = v
            frontier.append(key)
        return v

    for s0 in sorted(impl.init, key=repr):
        sid = cache.impl_id(s0)
        formula.add_clause(
            [var(sid, cache.spec_id(t0)) for t0 in sorted(spec.init, key=repr)]
        )

    explored: set[tuple[int, int]] = set()
    truncated = False
    head = 0
    while head < len(frontier):
        pair = frontier[head]
        head += 1
        if pair in explored:
            continue
        if len(explored) >= bound:
            truncated = True
            break
        explored.add(pair)
        sid, tid = pair
        p = var_of[pair]
        inputs, outputs, internals = cache.impl_moves(sid)
        for port, value, s_next in inputs:
            formula.add_clause(
                [-p]
                + [var(s_next, t) for t in cache.spec_input_responses(tid, port, value)]
            )
        for port, value, s_next in outputs:
            formula.add_clause(
                [-p]
                + [var(s_next, t) for t in cache.spec_output_responses(tid, port, value)]
            )
        for s_next in internals:
            formula.add_clause([-p] + [var(s_next, t) for t in cache.closure(tid)])

    return formula, var_of, len(explored), truncated


def check_refinement_sat(
    impl: Module,
    spec: Module,
    stimuli: Stimuli,
    bound: int = DEFAULT_BOUND,
) -> SatVerdict:
    """Decide ``impl ⊑ spec`` through the CNF encoding and DPLL solver."""
    interface = _interface_violation(impl, spec)
    if interface is not None:
        return SatVerdict(
            holds=False,
            complete=True,
            pairs_explored=0,
            variables=0,
            clauses=0,
            detail=str(interface),
        )
    with obs.span("refine:sat") as sp:
        formula, var_of, explored, truncated = encode_refinement(
            impl, spec, stimuli, bound
        )
        result = solve(formula)
        sp.set(
            holds=result.satisfiable,
            complete=not truncated,
            pairs=explored,
            variables=formula.num_vars,
            clauses=len(formula.clauses),
        )
    obs.count("refinement.sat_checks")
    relation_size = None
    if result.satisfiable and result.model is not None:
        relation_size = sum(1 for v in var_of.values() if result.model[v])
    return SatVerdict(
        holds=result.satisfiable,
        complete=not truncated,
        pairs_explored=explored,
        variables=formula.num_vars,
        clauses=len(formula.clauses),
        relation_size=relation_size,
        stats={
            "decisions": result.decisions,
            "propagations": result.propagations,
            "conflicts": result.conflicts,
        },
    )


def check_obligation_sat(
    lhs: ExprHigh,
    rhs: ExprHigh,
    env: Environment,
    stimuli: Stimuli | None = None,
    values: Iterable[Value] = (0, 1),
    spec_capacity: int | None = 4,
    bound: int = DEFAULT_BOUND,
) -> SatVerdict:
    """The SAT oracle's verdict on a rewrite's ``rhs ⊑ lhs`` obligation.

    Denotes both sides exactly as
    :func:`~repro.refinement.checker.check_rewrite_obligation` does (the
    rhs under *env*, the lhs under the roomier *spec_capacity*), then
    decides refinement through the CNF encoding.  Unlike the game checker
    this never raises on a negative verdict — the caller inspects
    :class:`SatVerdict`.
    """
    impl = denote(rhs.lower(), env)
    spec = denote(lhs.lower(), env.with_capacity(spec_capacity))
    if stimuli is None:
        stimuli = uniform_stimuli(impl, values)
    return check_refinement_sat(impl, spec, stimuli, bound=bound)


@dataclass
class CrossCheckReport:
    """Both oracles' verdicts on one obligation, plus the comparison."""

    game_holds: bool
    sat: SatVerdict
    #: True when the SAT verdict was definitive and matched, or was
    #: indefinite (an indefinite verdict cannot disagree).
    agreed: bool

    def summary(self) -> str:
        game = "holds" if self.game_holds else "fails"
        return f"game: {game} / {self.sat.summary()} / agreed={self.agreed}"


def cross_check_obligation(
    lhs: ExprHigh,
    rhs: ExprHigh,
    env: Environment,
    stimuli: Stimuli | None = None,
    values: Iterable[Value] = (0, 1),
    spec_capacity: int | None = 4,
    bound: int = DEFAULT_BOUND,
) -> CrossCheckReport:
    """Run both decision procedures on one obligation and compare.

    The weak-simulation game is solved and the SAT oracle consulted on
    the *same* denoted modules and stimuli.  A definitive SAT verdict
    that contradicts the game raises :class:`OracleDisagreement` carrying
    both witnesses; an indefinite one (SAT under a truncating bound) is
    recorded as agreement-by-default since it claims nothing beyond the
    bound.
    """
    impl = denote(rhs.lower(), env)
    spec = denote(lhs.lower(), env.with_capacity(spec_capacity))
    if stimuli is None:
        stimuli = uniform_stimuli(impl, values)

    # The certificate only ever serves as the disagreement witness, so
    # skip minting replay witnesses.
    game: SimulationResult = find_weak_simulation(
        impl, spec, stimuli, mint_witnesses=False
    )
    verdict = check_refinement_sat(impl, spec, stimuli, bound=bound)
    obs.count("refinement.sat_cross_checks")

    if verdict.definitive and verdict.holds != game.holds:
        obs.count("refinement.sat_disagreements")
        game_witness = game.certificate if game.holds else game.violation
        raise OracleDisagreement(
            f"SAT oracle says {'holds' if verdict.holds else 'fails'} but the "
            f"weak-simulation game says {'holds' if game.holds else 'fails'} "
            f"({verdict.pairs_explored} pairs explored, complete={verdict.complete})",
            game_witness=game_witness,
            sat_witness=verdict,
        )
    obs.count("refinement.sat_agreements")
    return CrossCheckReport(game_holds=game.holds, sat=verdict, agreed=True)
