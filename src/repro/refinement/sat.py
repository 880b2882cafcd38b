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
verdicts ever contradict.  The two share only one-step successor
enumeration (one :class:`_GameCache` per cross-check, over the same
``denote`` semantics).  The encoder reads exactly four things of it:
``moves`` (implementation moves), ``internal_succ`` (spec one-step
internal successors), ``spec_table.inputs`` and ``spec_emits`` (spec
one-step input and output successors), plus ``intern`` for the initial
states.  It walks τ-steps and applies the three diagrams itself, so a
mistake in the game's diagram definitions shows up as a disagreement;
the game's relation, choices and refutations never reach the encoder.

**The encoding.**  One boolean variable ``r(s, t)`` per
product-reachable pair of an impl state ``s`` and a spec state ``t``,
read as "the pair is in the simulation relation".  A τ-closure is never
spelled out in a clause.  Instead the spec's internal-step graph is
condensed into strongly connected components (SCCs, :class:`_Encoding`),
and one auxiliary variable ``W(s', C)`` per impl state ``s'`` and SCC
``C`` reads "some spec state τ*-reachable from C is related to s'":

* ``(¬W(s', C) ∨ ⋁_{t ∈ C} r(s', t) ∨ ⋁ W(s', C'))`` over the SCCs
  ``C'`` one internal step below C (a single state with no internal step
  out needs no ``W``: it is ``r(s', t)`` itself);
* for every implementation initial state ``s0``: ``(⋁ r(s0, t0))`` over
  all spec initial states ``t0`` — some initial pair must be related;
* for every explored pair ``p = (s, t)`` and implementation move to
  ``s'``, "if p is related, some permitted response is related too":

  - **internal** move: ``(¬r_p ∨ W(s', scc(t)))`` — zero or more
    internal steps;
  - **input** of *v* on port *i*: ``(¬r_p ∨ ⋁ W(s', scc(t_mid)))`` over
    the spec states ``t_mid`` that accept *v* on *i* from ``t`` —
    internal steps may follow;
  - **output** of *v* on port *o*: ``(¬r_p ∨ ⋁ r(s', t₂))`` over the
    spec states ``t₂`` reached by emitting *v* on *o* after τ-steps from
    ``t`` (memoised per SCC) — internal steps may precede the output but
    not follow it.

  A move with *no* permitted response contributes the unit clause
  ``(¬r_p)``.

The SCC graph is acyclic, so in every model a ``W`` can only be true if
some pair below it is, and the greatest model restricted to the pair
variables is exactly the greatest relation closed under the diagrams.
Every clause has at most one negative literal (the formula is
dual-Horn), so :func:`solve` decides it by propagation alone, in linear
time: starting from all-true, a clause whose positive literals have all
gone false forces its negative one — the game's refutation of a losing
position.  The model it finds is the greatest one.

**Soundness of the verdicts.**  Exploration stops after *bound* pairs
(auxiliary variables do not count).  Pairs beyond the bound get a
variable but no closure clauses — they are
*optimistically unconstrained* (free to be "related").  Hence:

* **UNSAT is always a definitive "fails"**: even with every out-of-bound
  pair granted for free, no relation exists, so none exists outright.
* **SAT with complete exploration is a definitive "holds"**: the model's
  true pair variables form a genuine weak simulation containing an initial
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
    _KIND_INPUT,
    _KIND_INTERNAL,
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


@dataclass
class SatResult:
    """Outcome of :func:`solve`: a model (var → bool, 1-indexed) or UNSAT.

    ``propagations`` counts the variables forced false."""

    satisfiable: bool
    model: list[bool] | None
    propagations: int = 0


def solve(formula: CnfFormula) -> SatResult:
    """Decide the dual-Horn *formula* by Dowling–Gallier propagation.

    Every variable starts true.  Only a clause with an empty body forces
    a variable false outright, so when there is none the all-true
    assignment is the model and nothing else is built.  Otherwise each
    clause watches one body variable.  When a watched variable is forced
    false, the watch moves to a later body variable of that clause that
    is still true; falsity is permanent, so a watch never moves back and
    the whole run is linear in the formula size.  A clause whose body is
    all false forces its head false, and a clause without a head then
    makes the formula UNSAT.  No decision is ever taken, so nothing is
    undone.

    A variable is false in the returned model only if every model makes it
    false: the model is the *greatest* one, the same one a true-first DPLL
    search ends in.
    """
    n = formula.num_vars
    value = bytearray(b"\x01") * (n + 1)
    value[0] = 0
    clauses = formula.clauses
    queue: list[int] = []
    for head, body in clauses:
        if body:
            continue
        if not head:
            return SatResult(False, None, len(queue))
        if value[head]:
            value[head] = 0
            queue.append(head)

    propagations = len(queue)
    if not queue:
        return SatResult(True, list(map(bool, value)), 0)
    # Only variables some clause watches get a watch list.
    watches: list[list[int] | None] = [None] * (n + 1)
    for ci, (_, body) in enumerate(clauses):
        if body:
            watching = watches[body[0]]
            if watching is None:
                watches[body[0]] = [ci]
            else:
                watching.append(ci)
    watch_at = [0] * len(clauses)
    while queue:
        for ci in watches[queue.pop()] or ():
            head, body = clauses[ci]
            k = watch_at[ci] + 1
            size = len(body)
            while k < size and not value[body[k]]:
                k += 1
            if k < size:
                watch_at[ci] = k
                watching = watches[body[k]]
                if watching is None:
                    watches[body[k]] = [ci]
                else:
                    watching.append(ci)
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


class RefinementFormula(CnfFormula):
    """The dual-Horn encoding of one refinement instance.

    ``pair_vars[i]`` is the variable of the *i*-th product pair in
    exploration order; every other variable is an auxiliary τ-closure
    variable (see the module docstring)."""

    def __init__(self) -> None:
        super().__init__()
        self.pair_vars: list[int] = []


class _Encoding:
    """The clauses of one refinement instance, emitted as exploration
    reaches each product pair.

    The spec's internal-step graph is condensed into strongly connected
    components (SCCs) on demand, by an iterative Tarjan over the memoised
    one-step successors; SCC ids are dense and numbered in completion
    order, so every SCC an SCC reaches in one step has a smaller id.
    Methods, not nested closures: a recursive closure refers to itself
    through its cell, and the cycle would keep every memo here alive until
    the cyclic collector runs.
    """

    __slots__ = (
        "formula", "pairs", "moves", "internal_succ", "spec_inputs", "spec_emits",
        "_scc_of", "_members", "_below", "_pair_rows", "_closure_rows",
        "_entered", "_emitted", "_input_bodies", "_output_bodies",
    )

    def __init__(self, cache: _GameCache):
        self.formula = RefinementFormula()
        #: Product pairs ``(impl id, spec id)`` in exploration order.
        self.pairs: list[tuple[int, int]] = []
        # The only reads of the shared successor cache.
        self.moves = cache.moves
        self.internal_succ = cache.internal_succ
        self.spec_inputs = cache.spec_table.inputs
        self.spec_emits = cache.spec_emits
        self._scc_of: dict[int, int] = {}
        self._members: list[tuple[int, ...]] = []
        self._below: list[tuple[int, ...]] = []
        # Per implementation successor id: spec id → pair variable, and
        # SCC id → the one-literal body [W].
        self._pair_rows: dict[int, dict[int, int]] = {}
        self._closure_rows: dict[int, dict[int, list[int]]] = {}
        self._entered: dict[tuple, tuple[int, ...]] = {}
        self._emitted: dict[tuple, tuple[int, ...]] = {}
        self._input_bodies: dict[tuple, list[int]] = {}
        self._output_bodies: dict[tuple, list[int]] = {}

    # -- the condensed internal-step graph ------------------------------------

    def scc(self, tid: int) -> int:
        """The SCC id of spec state *tid*."""
        c = self._scc_of.get(tid)
        if c is None:
            self._condense(tid)
            c = self._scc_of[tid]
        return c

    def _condense(self, root: int) -> None:
        """Tarjan from *root* over the states no earlier run reached.

        A frame keeps its state's stack position, and ``low`` each open
        state's least reachable position; a state whose position survives
        closes the SCC above it on the stack."""
        succ, scc_of = self.internal_succ, self._scc_of
        low = {root: 0}
        stack = [root]
        work = [(root, iter(succ(root)), 0)]
        while work:
            v, edges, at = work[-1]
            for w in edges:
                if w in scc_of:  # in a finished SCC
                    continue
                reach = low.get(w)
                if reach is None:
                    low[w] = len(stack)
                    work.append((w, iter(succ(w)), len(stack)))
                    stack.append(w)
                    break
                if reach < low[v]:  # on the stack
                    low[v] = reach
            else:
                work.pop()
                reach = low[v]
                if reach < at:
                    u = work[-1][0]
                    if reach < low[u]:
                        low[u] = reach
                    continue
                c = len(self._members)
                members = tuple(stack[at:])
                del stack[at:]
                below: dict[int, None] = {}
                for m in members:
                    scc_of[m] = c
                for m in members:
                    below.update(dict.fromkeys(map(scc_of.__getitem__, succ(m))))
                below.pop(c, None)
                self._members.append(members)
                self._below.append(tuple(below))

    def _emissions(self, c: int, port: Port, value: Value) -> tuple[int, ...]:
        """Spec ids reached by emitting *value* on *port* after τ-steps
        from SCC *c* (none after the emission), memoised per SCC."""
        memo = self._emitted.get((port, value))
        if memo is None:
            memo = self._emitted[port, value] = {}
        found = memo.get(c)
        if found is not None:
            return found
        members, below, emits = self._members, self._below, self.spec_emits
        # Bottom-up over the SCCs below c, without recursion.
        todo = [c]
        while todo:
            d = todo[-1]
            missing = [e for e in below[d] if e not in memo]
            if missing:
                todo += missing
                continue
            todo.pop()
            if d not in memo:
                targets = {
                    t: None
                    for m in members[d]
                    for spec_value, t in emits(m, port)
                    if spec_value == value
                }
                for e in below[d]:
                    targets.update(dict.fromkeys(memo[e]))
                memo[d] = tuple(targets)
        return memo[c]

    # -- variables and bodies ---------------------------------------------------

    def pair_vars(self, s_next: int, tids: Iterable[int]) -> list[int]:
        """The variables of the pairs ``(s_next, t)``, new ones numbered
        and queued for exploration in *tids* order."""
        row = self._pair_rows.get(s_next)
        if row is None:
            row = self._pair_rows[s_next] = {}
        lits = []
        for t in tids:
            v = row.get(t)
            if v is None:
                v = row[t] = self.formula.new_var()
                self.pairs.append((s_next, t))
                self.formula.pair_vars.append(v)
            lits.append(v)
        return lits

    def closure_body(self, s_next: int, c: int) -> list[int]:
        """``[W(s_next, c)]``, the body of an internal move to *s_next*
        from a spec state in SCC *c*.

        A new ``W`` gets the clause ``¬W ∨ ⋁ r(s_next, t) ∨ ⋁ W(s_next, C′)``
        over the states of *c* and the SCCs one step below it, and so does
        every new ``W`` below it: a variable without its clause would be
        unconstrained.  Each SCC's pairs are numbered when the walk first
        meets it, so on an acyclic internal-step graph pairs are explored
        in the order of a depth-first τ-walk."""
        row = self._closure_rows.get(s_next)
        if row is None:
            row = self._closure_rows[s_next] = {}
        body = row.get(c)
        if body is None:
            pending: list[tuple[int, int, list[int]]] = []
            body = self._open(s_next, row, c, pending)
            clauses = self.formula.clauses
            while pending:
                w, d, lits = pending.pop()
                for e in self._below[d]:
                    child = row.get(e)
                    if child is None:
                        child = self._open(s_next, row, e, pending)
                    lits.append(child[0])
                clauses.append((w, lits))
        return body

    def _open(self, s_next: int, row: dict, c: int, pending: list) -> list[int]:
        """Number the pairs of SCC *c* and make ``[W(s_next, c)]``, queueing
        its clause on *pending*.  A single state with no internal step
        out is its own closure, so there ``W`` is the pair variable."""
        lits = self.pair_vars(s_next, self._members[c])
        if len(lits) == 1 and not self._below[c]:
            body = row[c] = lits
        else:
            body = row[c] = [self.formula.new_var()]
            pending.append((body[0], c, lits))
        return body

    def input_body(self, s_next: int, tid: int, port: Port, value: Value) -> list[int]:
        """``⋁ W(s_next, scc(t_mid))`` over the states *tid* accepts
        (*port*, *value*) into: internal steps may follow an input."""
        sccs = self._entered.get((tid, port, value))
        if sccs is None:
            mids = self.spec_inputs(tid, port, value)
            sccs = self._entered[tid, port, value] = (
                (self.scc(mids[0]),) if len(mids) == 1
                else tuple(dict.fromkeys(map(self.scc, mids)))
            )
        if len(sccs) == 1:  # the internal move's body, shared
            return self.closure_body(s_next, sccs[0])
        body = self._input_bodies.get((s_next, sccs))
        if body is None:
            body = self._input_bodies[s_next, sccs] = [
                self.closure_body(s_next, c)[0] for c in sccs
            ]
        return body

    def output_body(self, s_next: int, c: int, port: Port, value: Value) -> list[int]:
        """``⋁ r(s_next, t₂)`` over the emissions of *value* on *port*
        after τ-steps from SCC *c*: internal steps may only precede an
        output."""
        targets = self._emissions(c, port, value)
        body = self._output_bodies.get((s_next, targets))
        if body is None:
            body = self._output_bodies[s_next, targets] = self.pair_vars(s_next, targets)
        return body

    def explore(self, bound: int) -> tuple[int, bool]:
        """Emit the closure clauses of pairs in order until none is left
        or *bound* pairs are explored; returns ``(explored, truncated)``."""
        pairs, pair_vars, clauses = self.pairs, self.formula.pair_vars, self.formula.clauses
        moves, scc_of, closure_rows = self.moves, self._scc_of, self._closure_rows
        explored = 0
        while explored < len(pairs):
            if explored >= bound:
                return explored, True
            sid, tid = pairs[explored]
            p = pair_vars[explored]
            explored += 1
            c = scc_of.get(tid)
            if c is None:
                c = self.scc(tid)
            for kind, port, value, s_next in moves(sid):
                if kind == _KIND_INTERNAL:
                    row = closure_rows.get(s_next)
                    body = None if row is None else row.get(c)
                    if body is None:
                        body = self.closure_body(s_next, c)
                elif kind == _KIND_INPUT:
                    body = self.input_body(s_next, tid, port, value)
                else:
                    body = self.output_body(s_next, c, port, value)
                clauses.append((p, body))
        return explored, False


def encode_refinement(
    impl: Module,
    spec: Module,
    stimuli: Stimuli,
    bound: int = DEFAULT_BOUND,
    *,
    cache: _GameCache | None = None,
) -> tuple[RefinementFormula, list[tuple[int, int]], int, bool]:
    """Encode ``impl ⊑ spec`` (bounded by *stimuli*) as dual-Horn CNF.

    Returns ``(formula, pairs, explored, truncated)``: *pairs* lists the
    product pairs ``(impl id, spec id)`` — ids in the :class:`_GameCache`
    ordering — numbered breadth-first from the initial pairs, and
    ``formula.pair_vars[i]`` is the variable of ``pairs[i]``; *explored*
    counts the pairs whose closure clauses were emitted, and *truncated*
    is True when the *bound* cut exploration short (see the module
    docstring for what that does to verdict status).  The bound counts
    pairs only, not auxiliary variables.

    *cache* is a successor cache already built for exactly these modules
    and stimuli (:func:`cross_check_obligation` shares one with the game
    so that each module is lowered once); by default a fresh one is used.
    Only one-step successor enumeration is shared: the encoding walks
    τ-steps and applies the diagrams itself, and reads nothing of the
    game's positions, choices or refutations.
    """
    stimuli = _normalise_stimuli(impl, stimuli)
    cache = _successor_cache(impl, spec, stimuli, cache)
    encoding = _Encoding(cache)
    spec_init = [cache.spec_table.intern(t0) for t0 in sorted(spec.init, key=repr)]
    for s0 in sorted(impl.init, key=repr):
        body = encoding.pair_vars(cache.impl_table.intern(s0), spec_init)
        encoding.formula.clauses.append((0, body))
    explored, truncated = encoding.explore(bound)
    return encoding.formula, encoding.pairs, explored, truncated


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
        model = result.model
        relation_size = sum(model[v] for v in formula.pair_vars)
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
