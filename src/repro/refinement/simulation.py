"""Executable weak-simulation checking (definitions 4.1–4.5 of the paper).

The paper proves refinements ``m ⊑ m'`` in Lean by exhibiting a simulation
relation φ.  Here, for *bounded* instances (finite stimulus domains, bounded
queues), we *decide* the existence of a weak simulation by solving the
simulation game on the fly, as a local greatest fixpoint (in the style of
Liu and Smolka's local algorithm):

* positions are pairs (impl state, spec state), interned only when some
  chosen response reaches them;
* for every implementation move (input with a stimulus value, output,
  internal step) the corresponding diagram permits an ordered list of
  *spec responses*; the solver optimistically points the move at the
  first response not yet refuted and explores only that position;
* a position is refuted when some move runs out of candidates, and a
  refutation revisits only the moves whose current choice pointed at the
  refuted position — each advances to its next candidate.

Refutation is monotone, so every refuted position really loses; when the
search settles, the explored unrefuted positions are closed under the
chosen responses and therefore form a weak simulation.

The three simulation diagrams keep the paper's asymmetry:

* **input** transitions may be followed by internal steps in the spec;
* **output** transitions may be *preceded* by internal steps in the spec,
  but not followed — connecting ports fuses an output to an input with no
  internal step in between (section 4.5), so allowing trailing internal
  steps would make the connect combinator unsound;
* **internal** transitions map to zero or more internal steps.

Success yields a :class:`SimulationCertificate` whose relation (the explored
winning positions) is a genuine weak simulation containing an initial pair
for every implementation initial state; failure yields a counterexample
with the violated diagram.

Certificates are *persistent evidence*: they serialise to the compact
binary container of :mod:`repro.refinement.codec` with a stable content
hash (``to_dict`` is a read-only JSON dump for people), and
:func:`recheck_certificate` re-validates a stored relation without solving
the game: one exhaustive pass over the successor tables the game steps
replays all three diagrams per related pair, short-circuiting at the first
spec response inside the relation.  A tampered or stale certificate fails
that pass and is rejected, never trusted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .. import obs
from ..core.module import Module, State, Value
from ..core.ports import Port
from ..errors import CertificateError, RefinementError, SemanticsError
from .encoding import NodeTable, state_bytes, write_uvarint
from .table import SuccessorTable

Stimuli = Mapping[Port, Iterable[Value]]

#: Bump when the serialised certificate layout changes; older stored
#: certificates then fail :func:`repro.refinement.codec.from_bytes` and the
#: caller falls back to a fresh search.  Format 2 anchors the content hash
#: on the canonical binary core.
CERTIFICATE_FORMAT = 2

#: The most positions one simulation game may intern before giving up
#: with a :class:`~repro.errors.SemanticsError`; far above what any
#: library obligation's search interns.
POSITION_LIMIT = 500_000

#: Diagram tags of the implementation's moves.
_KIND_INPUT, _KIND_OUTPUT, _KIND_INTERNAL = 0, 1, 2
_KIND_NAMES = ("input", "output", "internal")


# -- state serialisation ------------------------------------------------------
#
# Module states are arbitrary hashable values built from tuples, frozensets
# and scalar leaves (the queue/product combinators only ever nest tuples and
# frozensets).  The stored form is binary (:mod:`repro.refinement.encoding`);
# the JSON dump of ``to_dict`` encodes every value as a small tagged list,
# since JSON cannot represent tuples or frozensets natively and bool/int
# must not be conflated.  Frozenset elements are ordered by their binary
# encodings in both views, so the dump shows the canonical form.


def encode_state(value) -> object:
    """Encode a module state (or stimulus value) as JSON-serialisable data
    for the :meth:`SimulationCertificate.to_dict` dump."""
    if value is None:
        return ["z"]
    if isinstance(value, bool):  # before int: bool is an int subclass
        return ["b", value]
    if isinstance(value, int):
        return ["i", value]
    if isinstance(value, float):
        return ["f", value]
    if isinstance(value, str):
        return ["s", value]
    if isinstance(value, tuple):
        return ["t", [encode_state(item) for item in value]]
    if isinstance(value, frozenset):
        items = sorted(value, key=state_bytes)
        return ["fs", [encode_state(item) for item in items]]
    raise CertificateError(
        f"cannot serialise state component of type {type(value).__name__!r}"
    )


def _encode_stimuli(stimuli: Stimuli) -> list:
    rows = [
        [str(port), [encode_state(value) for value in values]]
        for port, values in stimuli.items()
    ]
    rows.sort(key=lambda row: row[0])
    return rows


@dataclass
class SimulationCertificate:
    """A checked simulation relation between an implementation and a spec.

    The certificate is self-contained evidence of ``impl ⊑ spec`` on one
    bounded instance: the winning relation, the stimulus domain it was
    decided under, and bookkeeping counts.  It serialises losslessly
    (:func:`repro.refinement.codec.to_bytes`/``from_bytes``; ``to_dict``
    is a read-only JSON dump) and carries a stable SHA-256 content hash,
    so it can be persisted in the content-addressed result cache or dumped
    to a file and independently re-validated later with
    :func:`recheck_certificate`.
    """

    relation: frozenset[tuple[State, State]]
    impl_states: int
    spec_states: int
    iterations: int
    stimuli: dict[Port, tuple[Value, ...]] = field(default_factory=dict)
    # Memoised canonical forms: the relation repeats the same few hundred
    # distinct states across tens of thousands of pairs, so the canonical
    # encoding interns each state once into a table and stores the relation
    # as index pairs — and every consumer (the binary codec, the cache
    # write, provenance hashes in worker results, to_dict) shares one pass.
    _canon: tuple | None = field(default=None, repr=False, compare=False, kw_only=True)
    _hash: str | None = field(default=None, repr=False, compare=False, kw_only=True)

    def related(self, impl_state: State, spec_state: State) -> bool:
        return (impl_state, spec_state) in self.relation

    # -- serialisation -------------------------------------------------------

    def canonical_parts(self) -> tuple[tuple, tuple, tuple]:
        """``(impl_states, spec_states, rows)`` in canonical order.

        States are sorted by their standalone binary encodings — a total
        order independent of hash seeds and construction history — and the
        relation becomes sorted ``(impl_index, spec_index)`` pairs.  The
        binary codec, the content hash and the recheck all share this one
        index space.
        """
        if self._canon is None:
            memo: dict = {}
            impl = sorted({s for s, _ in self.relation}, key=lambda s: state_bytes(s, memo))
            spec = sorted({t for _, t in self.relation}, key=lambda t: state_bytes(t, memo))
            impl_index = {s: i for i, s in enumerate(impl)}
            spec_index = {t: j for j, t in enumerate(spec)}
            rows = sorted((impl_index[s], spec_index[t]) for s, t in self.relation)
            self._canon = (tuple(impl), tuple(spec), tuple(rows))
        return self._canon

    def core_bytes(self) -> bytes:
        """The canonical binary *core* of the certificate's semantic content.

        States are interned into a node table (hash-consed, children
        before parents) and the core serialises the node records plus the
        two state tables, the relation rows, the stimuli and the state
        counts.  The SHA-256 of this byte string **is** the content hash,
        and the binary container stores it verbatim.  The iteration count
        is bookkeeping of one search and stays outside.
        """
        impl_states, spec_states, rows = self.canonical_parts()
        table = NodeTable()
        impl_roots = [table.index(s) for s in impl_states]
        spec_roots = [table.index(t) for t in spec_states]
        stim_rows = [
            (str(port).encode("utf-8"), [table.index(v) for v in values])
            for port, values in sorted(self.stimuli.items(), key=lambda kv: str(kv[0]))
        ]
        out = bytearray()
        write_uvarint(out, CERTIFICATE_FORMAT)
        write_uvarint(out, len(table))
        out += table.blob()
        write_uvarint(out, len(impl_roots))
        for root in impl_roots:
            write_uvarint(out, root)
        write_uvarint(out, len(spec_roots))
        for root in spec_roots:
            write_uvarint(out, root)
        write_uvarint(out, len(rows))
        for i, j in rows:
            write_uvarint(out, i)
            write_uvarint(out, j)
        write_uvarint(out, len(stim_rows))
        for name, value_roots in stim_rows:
            write_uvarint(out, len(name))
            out += name
            write_uvarint(out, len(value_roots))
            for root in value_roots:
                write_uvarint(out, root)
        write_uvarint(out, int(self.impl_states))
        write_uvarint(out, int(self.spec_states))
        return bytes(out)

    def content_hash(self) -> str:
        """A stable SHA-256 over the certificate's semantic content.

        The hash is the digest of the canonical binary core — state
        tables and relation rows in canonical order, stimuli, state counts
        and the format version — so equal certificates hash equally
        regardless of construction order, and any tampering with the
        hashed content of a serialised certificate is detectable before
        the diagrams are even re-checked.
        """
        if self._hash is None:
            self._hash = hashlib.sha256(self.core_bytes()).hexdigest()
        return self._hash

    def to_dict(self) -> dict:
        """A read-only JSON dump for people (``GET /v1/certificates``);
        nothing reads it back — the stored encoding is binary."""
        impl_states, spec_states, rows = self.canonical_parts()
        return {
            "kind": "SimulationCertificate",
            "format": CERTIFICATE_FORMAT,
            "impl_table": [encode_state(s) for s in impl_states],
            "spec_table": [encode_state(t) for t in spec_states],
            "relation": [list(row) for row in rows],
            "stimuli": _encode_stimuli(self.stimuli),
            "impl_states": int(self.impl_states),
            "spec_states": int(self.spec_states),
            "iterations": int(self.iterations),
            "hash": self.content_hash(),
        }

    def summary(self) -> str:
        return (
            f"certificate: {len(self.relation)} related pairs "
            f"({self.impl_states} impl / {self.spec_states} spec states), "
            f"hash {self.content_hash()[:12]}"
        )


@dataclass
class Violation:
    """Why the simulation game is lost from some position."""

    kind: str  # "input" | "output" | "internal" | "interface" | "init"
    impl_state: State
    spec_state: State | None
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} diagram fails: {self.detail}"


@dataclass
class SimulationResult:
    """Outcome of a simulation search (or a certificate recheck).

    *method* is ``"exhaustive"``, the one recheck strategy, once a recheck
    reaches the certificate's relation, and ``None`` for a fresh search or
    a recheck refused before that (interface, stimuli, initial pairs)."""

    holds: bool
    certificate: SimulationCertificate | None = None
    violation: Violation | None = None
    method: str | None = None

    def raise_on_failure(self) -> SimulationCertificate:
        if not self.holds or self.certificate is None:
            raise RefinementError(str(self.violation), counterexample=self.violation)
        return self.certificate


class _GameCache:
    """The successor cache every checker shares, over one
    :class:`SuccessorTable` per module: the game search, the SAT encoder
    and the exhaustive recheck.

    The tables intern states into dense ids and step them without
    ``Module.fire`` (see :mod:`repro.refinement.table`), so every
    downstream cache, the game's position table and the recheck's
    relation-membership set key on small ints.  On top of them this cache
    memoises, per id, what the diagrams ask for: implementation moves,
    spec one-step internal successors and emissions, τ-closures (walked
    over the memoised one-step ids, and resumable where a caller stopped
    early), and per-(state, port, value) spec input and output
    responses.  The SAT encoder reads only the moves and the one-step
    spec successors, and walks τ-steps itself.
    """

    __slots__ = (
        "stimuli", "impl_table", "spec_table",
        "_moves", "_internal_succ", "_closures", "_walks",
        "_spec_inputs", "_spec_emits", "_spec_outputs",
    )

    def __init__(self, impl: Module, spec: Module, stimuli: Mapping[Port, tuple]):
        self.stimuli = stimuli
        self.impl_table = SuccessorTable(impl)
        self.spec_table = SuccessorTable(spec)
        self._moves: dict[int, tuple] = {}
        self._internal_succ: dict[int, tuple[int, ...]] = {}
        self._closures: dict[int, tuple[int, ...]] = {}
        self._walks: dict[int, tuple[list, list, set]] = {}
        self._spec_inputs: dict[tuple, tuple[int, ...]] = {}
        self._spec_emits: dict[tuple, tuple] = {}
        self._spec_outputs: dict[tuple, tuple[int, ...]] = {}

    def internal_succ(self, tid: int) -> tuple[int, ...]:
        """Spec ids reachable in exactly one internal step."""
        cached = self._internal_succ.get(tid)
        if cached is None:
            cached = self._internal_succ[tid] = self.spec_table.internals(tid)
        return cached

    def closure(self, tid: int) -> tuple[int, ...]:
        """Spec ids reachable by zero or more internal steps, in
        :meth:`tau_walk` order."""
        cached = self._closures.get(tid)
        if cached is None:
            for _ in self._resume(tid):
                pass
            cached = self._closures[tid]
        return cached

    def tau_walk(self, tid: int) -> Iterable[int]:
        """The closure of *tid*, each id when first seen on a depth-first
        walk over the memoised one-step successors.  A walk is kept as far
        as any caller took it and resumed from there, so a caller that
        stops at its answer steps only the states before it."""
        cached = self._closures.get(tid)
        return cached if cached is not None else self._resume(tid)

    def _resume(self, tid: int) -> Iterator[int]:
        walk = self._walks.get(tid)
        if walk is None:
            walk = self._walks[tid] = ([tid], [tid], {tid})
        order, frontier, seen = walk
        internal_succ = self.internal_succ
        i = 0
        while True:
            while i < len(order):
                yield order[i]
                i += 1
            if not frontier:
                break
            for nxt in internal_succ(frontier.pop()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
                    order.append(nxt)
        self._closures[tid] = tuple(order)
        self._walks.pop(tid, None)

    def moves(self, sid: int) -> tuple:
        """The moves ``(kind, port, value, successor id)`` of an impl state:
        inputs (stimulus order), then outputs, then internals (the
        module's order); an internal move has port and value None."""
        cached = self._moves.get(sid)
        if cached is None:
            table = self.impl_table
            cached = self._moves[sid] = (
                *[
                    (_KIND_INPUT, port, value, s_next)
                    for port, values in self.stimuli.items()
                    for value in values
                    for s_next in table.inputs(sid, port, value)
                ],
                *[
                    (_KIND_OUTPUT, port, value, s_next)
                    for port in table.output_ports
                    for value, s_next in table.outputs(sid, port)
                ],
                *[(_KIND_INTERNAL, None, None, s_next) for s_next in table.internals(sid)],
            )
        return cached

    def responders(self) -> tuple:
        """Per move kind, ``(tid, port, value) -> spec ids``: the ordered
        responses the input, output and internal diagrams permit, as the
        memoised tuples of :meth:`lazy_responders`."""
        return (
            self.spec_input_responses,
            self.spec_output_responses,
            lambda tid, _port, _value: self.closure(tid),
        )

    def lazy_responders(self) -> tuple:
        """Per move kind, ``(tid, port, value) -> iterator``: the responses
        of :meth:`responders` in the same order, generated over
        :meth:`tau_walk`, so a caller that stops at its answer steps only
        the spec states before it."""
        return (
            self._input_diagram,
            self._output_diagram,
            lambda tid, _port, _value: self.tau_walk(tid),
        )

    def _input_diagram(self, tid: int, port: Port, value: Value) -> Iterator[int]:
        """Spec ids reachable by accepting (port, value) then τ-steps."""
        for t_mid in self.spec_table.inputs(tid, port, value):
            yield from self.tau_walk(t_mid)

    def _output_diagram(self, tid: int, port: Port, value: Value) -> Iterator[int]:
        """Spec ids reaching an emission of *value* on *port* after τ-steps
        (internal steps strictly *before* the output — the paper's asymmetry)."""
        emits = self.spec_emits
        for mid in self.tau_walk(tid):
            for spec_value, t in emits(mid, port):
                if spec_value == value:
                    yield t

    def spec_input_responses(self, tid: int, port: Port, value: Value) -> tuple[int, ...]:
        """:meth:`_input_diagram`, memoised per (state, port, value)."""
        key = (tid, port, value)
        cached = self._spec_inputs.get(key)
        if cached is None:
            # dict.fromkeys: the closures of different mid states overlap,
            # and a duplicate response would only be tried twice.
            cached = self._spec_inputs[key] = tuple(
                dict.fromkeys(self._input_diagram(tid, port, value))
            )
        return cached

    def spec_output_responses(self, tid: int, port: Port, value: Value) -> tuple[int, ...]:
        """:meth:`_output_diagram`, memoised per (state, port, value)."""
        key = (tid, port, value)
        cached = self._spec_outputs.get(key)
        if cached is None:
            cached = self._spec_outputs[key] = tuple(
                dict.fromkeys(self._output_diagram(tid, port, value))
            )
        return cached

    def spec_emits(self, tid: int, port: Port) -> tuple[tuple[Value, int], ...]:
        """``(value, spec id)`` pairs of emitting on *port* from *tid*."""
        cached = self._spec_emits.get((tid, port))
        if cached is None:
            cached = self._spec_emits[(tid, port)] = self.spec_table.outputs(tid, port)
        return cached


def _interface_violation(impl: Module, spec: Module) -> Violation | None:
    if impl.input_ports() != spec.input_ports() or impl.output_ports() != spec.output_ports():
        detail = (
            f"impl ports in={sorted(map(str, impl.input_ports()))} "
            f"out={sorted(map(str, impl.output_ports()))} vs spec "
            f"in={sorted(map(str, spec.input_ports()))} out={sorted(map(str, spec.output_ports()))}"
        )
        return Violation("interface", None, None, detail)
    return None


def _normalise_stimuli(impl: Module, stimuli: Stimuli) -> dict[Port, tuple]:
    """Tuple-ise stimulus values and order the ports canonically.

    Ports are sorted by name so that move enumeration — and hence the
    relation the game explores and its content hash — is deterministic
    across processes regardless of the hash seed governing the caller's
    dict/frozenset iteration order.
    """
    normalised = {port: tuple(values) for port, values in stimuli.items()}
    missing = impl.input_ports() - set(normalised)
    if missing:
        raise RefinementError(
            f"no stimuli provided for input ports {sorted(map(str, missing))}"
        )
    return {port: normalised[port] for port in sorted(normalised, key=str)}


def _successor_cache(
    impl: Module, spec: Module, stimuli: dict[Port, tuple], cache: _GameCache | None
) -> _GameCache:
    """*cache* once checked to be built for these modules and normalised
    stimuli, or a fresh cache when it is None."""
    if cache is None:
        return _GameCache(impl, spec, stimuli)
    if (
        cache.impl_table.module is not impl
        or cache.spec_table.module is not spec
        or cache.stimuli != stimuli
    ):
        raise ValueError("the successor cache was built for other modules or stimuli")
    return cache


def find_weak_simulation(
    impl: Module,
    spec: Module,
    stimuli: Stimuli,
    *,
    cache: _GameCache | None = None,
) -> SimulationResult:
    """Decide ``impl ⊑ spec`` on the bounded instance given by *stimuli*.

    *stimuli* bounds the environment: for each input port, the finite set of
    values that may ever be offered.  Both modules must expose identical
    input and output port sets.

    The game is solved on the fly (see :class:`_LocalGame`): each move of
    an explored position points at its first unrefuted spec response, and
    only chosen positions are explored.  Initial pairs are chosen the same
    way, with both initial-state sets taken in ``state_bytes`` order so the
    relation — and hence the content hash — does not depend on the hash
    seed.  The search stops as soon as some implementation initial state
    has no spec initial state left.

    On success the certificate's relation is the set of explored,
    unrefuted positions.  Raises :class:`SemanticsError` when more than
    :data:`POSITION_LIMIT` positions are explored.

    *cache* is a successor cache already built for exactly these modules
    and stimuli, which the SAT cross-check shares with its encoder; by
    default a fresh one is used.
    """
    interface = _interface_violation(impl, spec)
    if interface is not None:
        return SimulationResult(False, violation=interface)
    stimuli = _normalise_stimuli(impl, stimuli)
    succ = _successor_cache(impl, spec, stimuli, cache)
    memo: dict = {}
    impl_init = sorted(impl.init, key=lambda s: state_bytes(s, memo))
    spec_init = sorted(spec.init, key=lambda t: state_bytes(t, memo))

    game = _LocalGame(succ)
    exhausted = game.solve(
        [succ.impl_table.intern(s0) for s0 in impl_init],
        [succ.spec_table.intern(t0) for t0 in spec_init],
    )
    obs.count("refinement.game_positions", len(game.pairs))
    if exhausted is not None:
        return SimulationResult(False, violation=game.diagnose(exhausted))

    pairs, lost = game.pairs, game.lost
    impl_state, spec_state = succ.impl_table.state, succ.spec_table.state
    certificate = SimulationCertificate(
        relation=frozenset(
            (impl_state(sid), spec_state(tid))
            for idx, (sid, tid) in enumerate(pairs)
            if not lost[idx]
        ),
        impl_states=len({sid for sid, _ in pairs}),
        spec_states=len({tid for _, tid in pairs}),
        iterations=game.iterations,
        stimuli=dict(stimuli),
    )
    return SimulationResult(True, certificate=certificate)


def _move_detail(kind: int, port, value) -> str:
    if kind == _KIND_INPUT:
        return f"input {port}={value!r}"
    if kind == _KIND_OUTPUT:
        return f"output {port} emits {value!r}"
    return "internal step"


class _LocalGame:
    """The weak-simulation game, explored and solved on the fly.

    Positions are ``(impl id, spec id)`` pairs packed into one int key — ids
    are dense and bounded by the position limit, so 32 bits per side is
    ample.  An *expanded* position stores its implementation moves
    ``(kind, port, value, impl successor id)``, each move's ordered spec
    response candidates (:class:`_GameCache` order: the spec's own state
    first for internal moves, the state right after the input for inputs)
    and the index of the candidate currently chosen.  ``waiting[p]`` lists
    the ``(owner, move)`` pairs whose choice points at position ``p``; an
    owner ``~r`` (negative) is the *r*-th implementation initial state,
    whose candidates are the spec initial states.

    Invariant: every choice points at an unrefuted position.  Refuting a
    position advances exactly its waiting choices, and a move with no
    candidate left refutes its owner.  Refutation is monotone, so once the
    pending positions run out, the unrefuted ones are all expanded and
    closed under their choices — a weak simulation.
    """

    __slots__ = (
        "succ", "index_of", "pairs", "lost", "reason", "moves",
        "cands", "choice", "waiting", "pending", "refuted", "iterations",
        "root_sid", "root_cands", "root_choice",
    )

    def __init__(self, succ: _GameCache):
        self.succ = succ
        self.index_of: dict[int, int] = {}
        self.pairs: list[tuple[int, int]] = []
        self.lost = bytearray()
        self.reason: dict[int, int] = {}
        self.moves: list[tuple | None] = []
        self.cands: list[list[tuple[int, ...]] | None] = []
        self.choice: list[list[int] | None] = []
        self.waiting: list[list[tuple[int, int]]] = []
        self.pending: list[int] = []
        self.refuted: list[int] = []
        self.iterations = 0
        self.root_sid: list[int] = []
        self.root_cands: list[tuple[int, ...]] = []
        self.root_choice: list[int] = []

    def choose(self, owner: int, move: int, s_next: int, cands: tuple, k: int) -> int:
        """Point *move* of *owner* at its first unrefuted candidate from
        index *k* on, interning it if new; returns the candidate index, or
        -1 when every remaining candidate is refuted."""
        index_of = self.index_of
        base = s_next << 32
        for k in range(k, len(cands)):
            key = base | cands[k]
            idx = index_of.get(key)
            if idx is None:
                idx = len(self.pairs)
                if idx >= POSITION_LIMIT:
                    raise SemanticsError(
                        f"simulation game exceeded the limit of {POSITION_LIMIT} positions"
                    )
                index_of[key] = idx
                self.pairs.append((s_next, cands[k]))
                self.lost.append(0)
                self.moves.append(None)
                self.cands.append(None)
                self.choice.append(None)
                self.waiting.append([(owner, move)])
                self.pending.append(idx)
                return k
            if not self.lost[idx]:
                self.waiting[idx].append((owner, move))
                return k
        return -1

    def solve(self, impl_init: list[int], spec_init: list[int]) -> int | None:
        """Explore until every pending position is expanded; returns the
        index of an implementation initial state left without any spec
        initial state (the game is lost), or None (it is won)."""
        spec_init = tuple(spec_init)
        for r, sid in enumerate(impl_init):
            self.root_sid.append(sid)
            self.root_cands.append(spec_init)
            self.root_choice.append(self.choose(~r, 0, sid, spec_init, 0))
            if self.root_choice[r] < 0:
                return r
        candidates = self.succ.responders()
        impl_moves = self.succ.moves
        pairs, pending = self.pairs, self.pending
        choose = self.choose
        while pending:
            p = pending.pop()
            tid = pairs[p][1]
            moves = impl_moves(pairs[p][0])
            cand_lists: list[tuple[int, ...]] = []
            choices: list[int] = []
            self.moves[p], self.cands[p], self.choice[p] = moves, cand_lists, choices
            for m, (kind, port, value, s_next) in enumerate(moves):
                cands = candidates[kind](tid, port, value)
                k = choose(p, m, s_next, cands, 0)
                if k < 0:
                    self.lost[p] = 1
                    self.reason[p] = m
                    self.refuted.append(p)
                    exhausted = self._propagate()
                    if exhausted is not None:
                        return exhausted
                    break
                cand_lists.append(cands)
                choices.append(k)
        return None

    def _propagate(self) -> int | None:
        """Advance every choice that pointed at a refuted position; returns
        an exhausted initial-state index, or None."""
        lost, refuted, waiting = self.lost, self.refuted, self.waiting
        choose = self.choose
        while refuted:
            p = refuted.pop()
            self.iterations += 1
            dependants, waiting[p] = waiting[p], []
            for owner, m in dependants:
                if owner < 0:
                    r = ~owner
                    k = choose(owner, 0, self.root_sid[r], self.root_cands[r],
                               self.root_choice[r] + 1)
                    if k < 0:
                        return r
                    self.root_choice[r] = k
                elif not lost[owner]:
                    choices = self.choice[owner]
                    k = choose(owner, m, self.moves[owner][m][3],
                               self.cands[owner][m], choices[m] + 1)
                    if k < 0:
                        lost[owner] = 1
                        self.reason[owner] = m
                        refuted.append(owner)
                    else:
                        choices[m] = k
        return None

    def diagnose(self, r: int) -> Violation:
        """Why implementation initial state *r* has no simulating spec state:
        the move that refuted its first spec initial pairing."""
        succ = self.succ
        sid = self.root_sid[r]
        if not self.root_cands[r]:
            s0 = succ.impl_table.state(sid)
            return Violation("init", s0, None, f"initial state {s0!r} is not simulated")
        tid = self.root_cands[r][0]
        idx = self.index_of[(sid << 32) | tid]
        kind, port, value, _ = self.moves[idx][self.reason[idx]]
        return Violation(
            _KIND_NAMES[kind],
            succ.impl_table.state(sid),
            succ.spec_table.state(tid),
            f"{_move_detail(kind, port, value)} has no winning spec response",
        )


def recheck_certificate(
    impl: Module,
    spec: Module,
    certificate: SimulationCertificate,
    stimuli: Stimuli | None = None,
) -> SimulationResult:
    """Re-validate a stored certificate without solving the game.

    Checks that the certificate's relation is a genuine weak simulation
    between *impl* and *spec* containing every initial pair.  The
    certificate's canonical state tables are interned once into the ids
    of one :class:`_GameCache`, and one exhaustive pass over that view
    replays all three simulation diagrams per pair, short-circuiting at
    the first spec response inside the relation: O(relation · branching),
    never a game search.

    When *stimuli* is given it must equal the certificate's recorded
    stimulus domain — a certificate only constitutes evidence for the
    bounded instance it was computed on.

    Returns a successful :class:`SimulationResult` carrying *certificate*
    itself (``method="exhaustive"``), or a failing one whose violation pinpoints the first diagram that no longer
    holds (a tampered relation, a relation state not shaped like the
    modules' states, or modules that drifted since the certificate was
    minted).
    """
    interface = _interface_violation(impl, spec)
    if interface is not None:
        return SimulationResult(False, violation=interface)
    if stimuli is not None:
        wanted = _normalise_stimuli(impl, stimuli)
        if wanted != certificate.stimuli:
            return SimulationResult(
                False,
                violation=Violation(
                    "interface", None, None,
                    "certificate was computed under different stimuli",
                ),
            )
    try:
        cert_stimuli = _normalise_stimuli(impl, certificate.stimuli)
    except RefinementError:
        return SimulationResult(
            False,
            violation=Violation(
                "interface", None, None,
                "certificate stimuli do not cover the implementation's inputs",
            ),
        )
    relation = certificate.relation

    for s0 in impl.init:
        if not any((s0, t0) in relation for t0 in spec.init):
            return SimulationResult(
                False,
                violation=Violation(
                    "init", s0, None,
                    f"initial state {s0!r} has no related spec initial state",
                ),
            )

    succ = _GameCache(impl, spec, cert_stimuli)
    impl_states, spec_states, rows = certificate.canonical_parts()
    try:
        impl_ids = [succ.impl_table.intern(s) for s in impl_states]
        spec_ids = [succ.spec_table.intern(t) for t in spec_states]
    except SemanticsError as exc:
        return SimulationResult(
            False,
            violation=Violation(
                "interface", None, None, f"relation is not over these modules: {exc}"
            ),
            method="exhaustive",
        )
    pairs = [(impl_ids[i], spec_ids[j]) for i, j in rows]
    related: dict[int, set[int]] = {}
    for sid, tid in pairs:
        related.setdefault(sid, set()).add(tid)
    violation = _exhaustive_recheck(succ, pairs, related)
    if violation is not None:
        return SimulationResult(False, violation=violation, method="exhaustive")
    return SimulationResult(True, certificate=certificate, method="exhaustive")


def _exhaustive_recheck(
    succ: _GameCache, pairs: list[tuple[int, int]], related: Mapping[int, set[int]]
) -> Violation | None:
    """The recheck proper: replay all three diagrams for every pair.

    Every implementation move of every related id pair needs some spec
    response related (*related* maps each impl id to its spec ids) to the
    move's successor.  The responses are the game's own
    (:meth:`_GameCache.lazy_responders`), in the game's order.  The game
    answers a move with its first unrefuted candidate, which in a
    certificate is nearly always the first candidate of all, so the pass
    stops at the first related response and walks τ-closures only as far
    as it got.  Returns the first diagram that fails, or None."""
    responses = succ.lazy_responders()
    unrelated: frozenset[int] = frozenset()
    for sid, tid in pairs:
        for kind, port, value, s_next in succ.moves(sid):
            if not related.get(s_next, unrelated).isdisjoint(responses[kind](tid, port, value)):
                continue
            return Violation(
                _KIND_NAMES[kind],
                succ.impl_table.state(sid),
                succ.spec_table.state(tid),
                f"{_move_detail(kind, port, value)} has no response inside the relation",
            )
    return None
