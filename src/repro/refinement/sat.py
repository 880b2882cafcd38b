"""A SAT oracle for refinement verdicts, independent of the game solver.

:func:`repro.refinement.simulation.find_weak_simulation` decides bounded
refinement by *solving the simulation game* on the fly — optimistic
response choices, revised as positions are refuted.  This module decides
the same question by a different route: the existence of a weak
simulation over the product-reachable arena is encoded as propositional
satisfiability and handed to an in-tree dual-Horn solver.  Agreement
between two independently-implemented decision procedures is the point:
:func:`cross_check_obligation` runs both on one rewrite obligation and
raises :class:`~repro.errors.OracleDisagreement` if their *definitive*
verdicts ever contradict.  The two share only the memoised successor
enumeration (one :class:`_GameCache` per cross-check, over the same
``denote`` semantics); the game's relation, choices and refutations
never reach the encoder.

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
dual-Horn), so :func:`solve` decides it by propagation alone, in linear
time: starting from all-true, a clause whose positive literals have all
gone false forces its negative one — the game's refutation of a losing
position.  The model it finds is the greatest one.

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
from ..errors import NotDualHornError, OracleDisagreement
from .checker import denote_instance
from .simulation import (
    SimulationResult,
    _GameCache,
    _interface_violation,
    _normalise_stimuli,
    _successor_cache,
    find_weak_simulation,
)

Stimuli = Mapping[Port, Iterable[Value]]

#: Default pair-exploration bound; comfortably above every library-rule
#: obligation (the largest explores a few tens of thousands of pairs), so
#: in-tree cross-checks are complete and therefore definitive.
DEFAULT_BOUND = 200_000


# -- dual-Horn CNF + propagation ---------------------------------------------


class CnfFormula:
    """A dual-Horn CNF formula: variables are positive ints, and every
    clause has at most one negative literal.

    A clause is stored as ``(head, body)``: *head* is the variable of its
    one negative literal (0 when it has none) and *body* the list of its
    positive variables, so ``(h, [a, b])`` is ``(¬h ∨ a ∨ b)``.  Clauses
    may share one body list; the solver never mutates it.
    """

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: list[tuple[int, list[int]]] = []

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause given as DIMACS literals (``±var``).

        Raises :class:`ValueError` on a literal outside the variable range
        and :class:`~repro.errors.NotDualHornError` on a clause with two
        negative literals.
        """
        head = 0
        body: list[int] = []
        for lit in literals:
            if lit == 0 or abs(lit) > self.num_vars:
                raise ValueError(f"literal {lit} outside variable range")
            if lit > 0:
                body.append(lit)
            elif head and head != -lit:
                raise NotDualHornError(
                    f"clause has negative literals {-head} and {lit}; "
                    "only dual-Horn clauses are supported"
                )
            else:
                head = -lit
        self.clauses.append((head, body))

    def checked_body(self, body: list[int]) -> list[int]:
        """Range-check a body list once, for clauses that will share it."""
        if body and (min(body) < 1 or max(body) > self.num_vars):
            bad = min(body) if min(body) < 1 else max(body)
            raise ValueError(f"literal {bad} outside variable range")
        return body


@dataclass
class SatResult:
    """Outcome of :func:`solve`: a model (var → bool, 1-indexed) or UNSAT.

    ``propagations`` counts the variables forced false."""

    satisfiable: bool
    model: list[bool] | None
    propagations: int = 0


def solve(formula: CnfFormula) -> SatResult:
    """Decide the dual-Horn *formula* by Dowling–Gallier propagation.

    Every variable starts true, and each clause watches one body variable.
    When a watched variable is forced false, the watch moves to a later
    body variable of that clause that is still true; falsity is permanent,
    so a watch never moves back and the whole run is linear in the formula
    size.  A clause whose body is all false forces its head false, and a
    clause without a head then makes the formula UNSAT.  No decision is
    ever taken, so nothing is undone.

    A variable is false in the returned model only if every model makes it
    false: the model is the *greatest* one, the same one a true-first DPLL
    search ends in.
    """
    n = formula.num_vars
    value = bytearray(b"\x01") * (n + 1)
    value[0] = 0
    clauses = formula.clauses
    watches: list[list[int]] = [[] for _ in range(n + 1)]
    watch_at = [0] * len(clauses)
    queue: list[int] = []
    for ci, (head, body) in enumerate(clauses):
        if body:
            watches[body[0]].append(ci)
        elif not head:
            return SatResult(False, None, len(queue))
        elif value[head]:
            value[head] = 0
            queue.append(head)

    propagations = len(queue)
    while queue:
        for ci in watches[queue.pop()]:
            head, body = clauses[ci]
            k = watch_at[ci] + 1
            size = len(body)
            while k < size and not value[body[k]]:
                k += 1
            if k < size:
                watch_at[ci] = k
                watches[body[k]].append(ci)
            elif not head:
                return SatResult(False, None, propagations)
            elif value[head]:
                value[head] = 0
                propagations += 1
                queue.append(head)
    return SatResult(True, list(map(bool, value)), propagations)


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
    *,
    cache: _GameCache | None = None,
) -> tuple[CnfFormula, list[tuple[int, int]], int, bool]:
    """Encode ``impl ⊑ spec`` (bounded by *stimuli*) as dual-Horn CNF.

    Returns ``(formula, pairs, explored, truncated)``: variable ``v`` is
    the product pair ``pairs[v - 1]`` ``(impl id, spec id)`` — ids in the
    :class:`_GameCache` ordering, numbered breadth-first from the initial
    pairs — *explored* counts pairs whose closure clauses were emitted,
    and *truncated* is True when the *bound* cut exploration short (see
    the module docstring for what that does to verdict status).

    *cache* is a successor cache already built for exactly these modules
    and stimuli (:func:`cross_check_obligation` shares one with the game
    so that each module is lowered once); by default a fresh one is used.
    Only successor enumeration is shared: the encoding reads nothing of
    the game's positions, choices or refutations.
    """
    stimuli = _normalise_stimuli(impl, stimuli)
    cache = _successor_cache(impl, spec, stimuli, cache)
    formula = CnfFormula()
    clauses = formula.clauses
    pairs: list[tuple[int, int]] = []
    # Per implementation successor id: spec id → variable.
    rows: dict[int, dict[int, int]] = {}
    # Clauses with the same successor and responses share one body list.
    bodies: dict[tuple[int, tuple[int, ...]], list[int]] = {}

    def body_of(s_next: int, responses: tuple[int, ...]) -> list[int]:
        key = (s_next, responses)
        body = bodies.get(key)
        if body is None:
            row = rows.get(s_next)
            if row is None:
                row = rows[s_next] = {}
            body = list(map(row.get, responses))
            if not all(body):
                for k, tid in enumerate(responses):
                    if body[k] is None:
                        v = row.get(tid)
                        if v is None:
                            pairs.append((s_next, tid))
                            v = row[tid] = len(pairs)
                        body[k] = v
                formula.num_vars = len(pairs)
            body = bodies[key] = formula.checked_body(body)
        return body

    spec_init = tuple(cache.spec_table.intern(t0) for t0 in sorted(spec.init, key=repr))
    for s0 in sorted(impl.init, key=repr):
        clauses.append((0, body_of(cache.impl_table.intern(s0), spec_init)))

    impl_moves = cache.moves
    responses = cache.responders()
    truncated = False
    explored = 0
    while explored < len(pairs):
        if explored >= bound:
            truncated = True
            break
        sid, tid = pairs[explored]
        explored += 1
        p = explored
        for kind, port, value, s_next in impl_moves(sid):
            clauses.append((p, body_of(s_next, responses[kind](tid, port, value))))

    return formula, pairs, explored, truncated


def check_refinement_sat(
    impl: Module,
    spec: Module,
    stimuli: Stimuli,
    bound: int = DEFAULT_BOUND,
    *,
    cache: _GameCache | None = None,
) -> SatVerdict:
    """Decide ``impl ⊑ spec`` through the dual-Horn encoding and solver.

    *cache* is passed on to :func:`encode_refinement`."""
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
        formula, pairs, explored, truncated = encode_refinement(
            impl, spec, stimuli, bound, cache=cache
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
        # Every variable is a pair variable, so the relation is the model.
        relation_size = result.model.count(True)
    return SatVerdict(
        holds=result.satisfiable,
        complete=not truncated,
        pairs_explored=explored,
        variables=formula.num_vars,
        clauses=len(formula.clauses),
        relation_size=relation_size,
        stats={"propagations": result.propagations},
    )


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
    bound: int = DEFAULT_BOUND,
) -> CrossCheckReport:
    """Run both decision procedures on one obligation and compare.

    The weak-simulation game is solved and the SAT oracle consulted on
    the *same* denoted modules and stimuli
    (:func:`~repro.refinement.checker.denote_instance`).  A definitive
    SAT verdict that contradicts the game raises
    :class:`OracleDisagreement` carrying both witnesses; an indefinite
    one (SAT under a truncating bound) is recorded as
    agreement-by-default since it claims nothing beyond the bound.
    """
    impl, spec, stimuli = denote_instance(lhs, rhs, env, stimuli)
    # One successor cache serves both procedures, so each module is
    # lowered once and each leaf fires once per local state; with
    # mismatched interfaces both return early.
    cache = None
    if _interface_violation(impl, spec) is None:
        stimuli = _normalise_stimuli(impl, stimuli)
        cache = _GameCache(impl, spec, stimuli)

    game: SimulationResult = find_weak_simulation(impl, spec, stimuli, cache=cache)
    verdict = check_refinement_sat(impl, spec, stimuli, bound=bound, cache=cache)
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
