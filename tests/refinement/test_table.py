"""The successor table the checkers step, held to ``Module.fire``.

The game, the SAT encoder, witness minting, witness replay and the
exhaustive recheck read one
:class:`~repro.refinement.table.SuccessorTable` per module instead of
firing it.  These tests check that the table yields what ``Module.fire``
yields on every state the game reaches, that the checkers really never
fire a composite module, that a module with no structure to lower (a
single leaf) goes through all of them unchanged, that witness replay
rejects every kind of damaged witness, and that a recheck leaves no
cyclic garbage behind.
"""

import dataclasses
import gc

import pytest

from repro.core.module import (
    InputTransition,
    InternalTransition,
    Module,
    OutputTransition,
    connect_ports,
    deq,
    enq,
    io_module,
    product,
    rename,
)
from repro.core.ports import IOPort, PortMap
from repro.core.semantics import denote
from repro.refinement.codec import from_bytes, to_bytes
from repro.refinement.sat import encode_refinement, solve
from repro.refinement.simulation import (
    _KIND_INPUT,
    _KIND_INTERNAL,
    _KIND_OUTPUT,
    ReplayWitnesses,
    SimulationCertificate,
    _canonical_moves,
    _GameCache,
    _normalise_stimuli,
    find_weak_simulation,
    recheck_certificate,
)
from repro.refinement.table import SuccessorTable
from repro.rewriting.rules import VERIFY_FACTORY_SPECS, build_rewrite, select_specs

from .table_oracle import assert_table_matches_fire, reachable


def obligation_modules(spec):
    rewrite = build_rewrite(*spec)
    for lhs, rhs, env, stimuli in rewrite.obligation() if rewrite.obligation else ():
        impl = denote(rhs.lower(), env)
        spec_module = denote(lhs.lower(), env.with_capacity(4))
        yield impl, spec_module, _normalise_stimuli(impl, stimuli)


@pytest.mark.parametrize("spec", VERIFY_FACTORY_SPECS, ids=lambda spec: spec[1])
def test_table_matches_fire_on_every_state_the_game_reaches(spec):
    instances = list(obligation_modules(spec))
    if not instances:
        pytest.skip("rewrite has no obligation")
    for impl, spec_module, stimuli in instances:
        cache = _GameCache(impl, spec_module, stimuli)
        find_weak_simulation(impl, spec_module, stimuli, mint_witnesses=False, cache=cache)
        for table in (cache.impl_table, cache.spec_table):
            reached = len(table.states)
            assert reached > 0
            assert assert_table_matches_fire(table, stimuli, range(reached)) >= reached


def _boom(*_args):
    raise AssertionError("a checker fired a composite module")


def poisoned(module: Module) -> Module:
    """*module* with every composite level's transitions raising; only
    the leaves it was built from still fire."""
    if module.origin is None:
        return module
    kind, *parts = module.origin
    parts = [poisoned(part) if isinstance(part, Module) else part for part in parts]
    return Module(
        {port: InputTransition(t.typ, _boom) for port, t in module.inputs.items()},
        {port: OutputTransition(t.typ, _boom) for port, t in module.outputs.items()},
        tuple(InternalTransition(t.name, _boom) for t in module.internals),
        module.init,
        (kind, *parts),
    )


@pytest.mark.parametrize("spec", VERIFY_FACTORY_SPECS, ids=lambda spec: spec[1])
def test_checkers_step_leaves_only(spec):
    instances = list(obligation_modules(spec))
    if not instances:
        pytest.skip("rewrite has no obligation")
    for impl, spec_module, stimuli in instances:
        bad_impl, bad_spec = poisoned(impl), poisoned(spec_module)
        for module, bad in ((impl, bad_impl), (spec_module, bad_spec)):
            if module.origin is not None and module.internals:
                with pytest.raises(AssertionError, match="composite"):
                    list(bad.internal_steps(next(iter(module.init))))

        game = find_weak_simulation(impl, spec_module, stimuli)
        poisoned_game = find_weak_simulation(bad_impl, bad_spec, stimuli)
        assert poisoned_game.holds == game.holds
        if game.holds:
            certificate = game.certificate
            assert to_bytes(poisoned_game.certificate) == to_bytes(certificate)
            replayed = recheck_certificate(bad_impl, bad_spec, certificate, stimuli)
            assert replayed.holds and replayed.method == "replay"
            bare = dataclasses.replace(certificate, witnesses=None)
            result = recheck_certificate(bad_impl, bad_spec, bare, stimuli)
            assert result.holds and result.method == "exhaustive"
        else:
            assert str(poisoned_game.violation) == str(game.violation)
        formula, pairs, _, _ = encode_refinement(bad_impl, bad_spec, stimuli)
        assert pairs == encode_refinement(impl, spec_module, stimuli)[1]
        assert solve(formula).satisfiable == game.holds


def fifo(slots: int) -> Module:
    """A hand-built single-leaf FIFO of *slots* places."""

    def accept(state, value):
        (queue,) = state
        nxt = enq(queue, value, slots)
        if nxt is not None:
            yield (nxt,)

    def emit(state):
        (queue,) = state
        popped = deq(queue)
        if popped is not None:
            yield popped[0], (popped[1],)

    return Module(
        {IOPort(0): InputTransition(None, accept)},
        {IOPort(0): OutputTransition(None, emit)},
        (),
        frozenset({((),)}),
    )


def test_a_single_leaf_module_goes_through_every_checker():
    impl, spec = fifo(1), fifo(2)
    stimuli = {IOPort(0): (0, 1)}
    table = SuccessorTable(impl)
    assert table.intern(((),)) == 0 and table.state(0) == ((),)

    result = find_weak_simulation(impl, spec, stimuli)
    assert result.holds
    certificate = result.certificate
    assert {s for s, _ in certificate.relation} == {((),), ((0,),), ((1,),)}
    assert recheck_certificate(impl, spec, certificate, stimuli).method == "replay"
    certificate.witnesses = None
    assert recheck_certificate(impl, spec, certificate, stimuli).method == "exhaustive"

    formula, pairs, explored, truncated = encode_refinement(impl, spec, stimuli)
    assert solve(formula).satisfiable and not truncated and explored == len(pairs)

    assert not find_weak_simulation(spec, impl, stimuli).holds


def test_a_relation_over_other_states_is_rejected():
    [spec] = [s for s in VERIFY_FACTORY_SPECS if s[1] == "mux_combine"]
    impl, spec_module, stimuli = next(obligation_modules(spec))
    certificate = find_weak_simulation(impl, spec_module, stimuli).certificate
    t0 = next(iter(spec_module.init))
    doctored = SimulationCertificate(
        relation=certificate.relation | {(("not", "a", "state"), t0)},
        impl_states=certificate.impl_states,
        spec_states=certificate.spec_states,
        iterations=certificate.iterations,
        stimuli=certificate.stimuli,
    )
    result = recheck_certificate(impl, spec_module, doctored, stimuli)
    assert not result.holds and result.method == "exhaustive"
    assert result.violation.kind == "interface"
    assert "not a state of this module" in result.violation.detail


class WitnessView:
    """Each witness of a certificate beside the move it answers, in table
    ids, and a way to damage one of them."""

    def __init__(self, impl, spec, certificate):
        self.witnesses = witnesses = certificate.witnesses
        self.succ = succ = _GameCache(impl, spec, certificate.stimuli)
        impl_states, spec_states, rows = certificate.canonical_parts()
        impl_ids = [succ.impl_table.intern(s) for s in impl_states]
        self.spec_ids = [succ.spec_table.intern(t) for t in spec_states]
        self.spec_all = self.spec_ids + [succ.spec_table.intern(t) for t in witnesses.extra_spec]
        self.related = {(impl_ids[i], self.spec_ids[j]) for i, j in rows}
        canonical_moves = _canonical_moves(succ, impl_ids)
        # (row, column, move, spec id of the row, witness)
        self.entries = [
            (r, c, succ.moves(impl_ids[i])[m], self.spec_ids[j], witness)
            for r, ((i, j), row) in enumerate(zip(rows, witnesses.rows))
            for c, (m, witness) in enumerate(zip(canonical_moves(impl_ids[i]), row))
        ]

    def path(self, witness) -> list[int]:
        return [self.spec_all[k] for k in self.witnesses.paths[witness[1]]]

    def replace(self, r, c, witness, path=None) -> ReplayWitnesses:
        """The witnesses with row *r*'s *c*-th witness set to *witness*;
        a new *path* is appended and the witness pointed at it."""
        paths = self.witnesses.paths
        if path is not None:
            witness = (witness[0], len(paths), witness[2])
            paths += (tuple(path),)
        rows = list(self.witnesses.rows)
        rows[r] = rows[r][:c] + (witness,) + rows[r][c + 1:]
        return dataclasses.replace(self.witnesses, paths=paths, rows=tuple(rows))


def repeated_first_state(view):
    """A τ-path edge that is not an internal step: the path's first state
    repeated, with both ends kept."""
    for r, c, _move, _tid, witness in view.entries:
        first = view.path(witness)[0]
        if first not in view.succ.internal_succ(first):
            path = view.witnesses.paths[witness[1]]
            return view.replace(r, c, witness, path=path[:1] + path)


def unreachable_input_mid(view):
    """An input path from a state the input cannot reach, though the
    state is related to the implementation's successor."""
    for r, c, (kind, port, value, s_next), tid, witness in view.entries:
        if kind == _KIND_INPUT:
            mids = view.succ.spec_input_mids(tid, port, value)
            for k, t in enumerate(view.spec_ids):
                if (s_next, t) in view.related and t not in mids:
                    return view.replace(r, c, witness, path=(k,))


def unemitted_output(view):
    """An output response, related to the implementation's successor,
    that the path's last state cannot emit."""
    for r, c, (kind, port, value, s_next), _tid, witness in view.entries:
        if kind == _KIND_OUTPUT:
            emits = view.succ.spec_table.outputs(view.path(witness)[-1], port)
            for k, t in enumerate(view.spec_ids):
                if (s_next, t) in view.related and (value, t) not in emits:
                    return view.replace(r, c, (kind, witness[1], k))


def response_past_the_table(view):
    """An output response index outside the relation's spec table."""
    for r, c, (kind, *_), _tid, witness in view.entries:
        if kind == _KIND_OUTPUT:
            return view.replace(r, c, (kind, witness[1], len(view.spec_ids)))


def unrelated_response(view):
    """An internal path one real internal step longer, to a response not
    related to the implementation's successor."""
    for r, c, (kind, _port, _value, s_next), _tid, witness in view.entries:
        if kind == _KIND_INTERNAL:
            for t in view.succ.internal_succ(view.path(witness)[-1]):
                if (s_next, t) not in view.related and t in view.spec_all:
                    path = view.witnesses.paths[witness[1]] + (view.spec_all.index(t),)
                    return view.replace(r, c, witness, path=path)


def internal_path_from_elsewhere(view):
    """An internal path from another spec state than the row's, to a
    response related to the implementation's successor."""
    for r, c, (kind, _port, _value, s_next), tid, witness in view.entries:
        if kind == _KIND_INTERNAL:
            for k, t in enumerate(view.spec_ids):
                if t != tid and (s_next, t) in view.related:
                    return view.replace(r, c, witness, path=(k,))


def output_path_from_elsewhere(view):
    """An output path from another spec state than the row's, one that
    can emit the output with the recorded response."""
    for r, c, (kind, port, value, _s_next), tid, witness in view.entries:
        if kind == _KIND_OUTPUT:
            emit = (value, view.spec_ids[witness[2]])
            for k, t in enumerate(view.spec_all):
                if t != tid and emit in view.succ.spec_table.outputs(t, port):
                    return view.replace(r, c, witness, path=(k,))


def short_row(view):
    """A witness row one witness short."""
    rows = view.witnesses.rows
    return dataclasses.replace(view.witnesses, rows=(rows[0][:-1],) + rows[1:])


def misshapen_waypoint(view):
    """A τ-path waypoint not shaped like the spec's states."""
    extra = (("not", "a", "state"),) + view.witnesses.extra_spec[1:]
    return dataclasses.replace(view.witnesses, extra_spec=extra)


@pytest.fixture(scope="module")
def ooo_loop_certificate():
    [spec] = [s for s in VERIFY_FACTORY_SPECS if s[1] == "ooo_loop"]
    impl, spec_module, stimuli = next(obligation_modules(spec))
    certificate = find_weak_simulation(impl, spec_module, stimuli).certificate
    assert recheck_certificate(impl, spec_module, certificate, stimuli).method == "replay"
    return impl, spec_module, stimuli, certificate


@pytest.mark.parametrize(
    "damage",
    [
        repeated_first_state,
        unreachable_input_mid,
        unemitted_output,
        response_past_the_table,
        unrelated_response,
        internal_path_from_elsewhere,
        output_path_from_elsewhere,
        short_row,
        misshapen_waypoint,
    ],
    ids=lambda damage: damage.__name__,
)
def test_replay_rejects_a_damaged_witness(ooo_loop_certificate, damage):
    # Replay is the warm path's trust boundary: a witness that does not
    # check out sends the recheck to the exhaustive pass, which still
    # accepts the intact relation.
    impl, spec_module, stimuli, certificate = ooo_loop_certificate
    witnesses = damage(WitnessView(impl, spec_module, certificate))
    assert witnesses is not None and witnesses != certificate.witnesses
    damaged = dataclasses.replace(certificate, witnesses=witnesses)
    result = recheck_certificate(impl, spec_module, damaged, stimuli)
    assert result.holds and result.method == "exhaustive"


def test_a_recheck_leaves_no_cyclic_garbage(ooo_loop_certificate):
    # A reference cycle through a successor table keeps the whole table
    # (every interned state and memo) alive until the cyclic collector
    # runs; a warm pass rechecks 17 certificates, so none may form.
    impl, spec_module, stimuli, certificate = ooo_loop_certificate
    stored = from_bytes(to_bytes(certificate))
    gc.collect()
    gc.disable()
    try:
        assert recheck_certificate(impl, spec_module, stored, stimuli).method == "replay"
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_cold_check_and_cross_check_leave_no_cyclic_garbage(tmp_path):
    # Work units run with the cyclic collector paused, which is safe only
    # while a cold pass makes no reference cycles either: the search,
    # witness minting, the codec, SAT encoding and solving.
    from repro import Session

    specs = select_specs(["mux_combine", "ooo_loop"])
    with Session(jobs=1, cache_dir=tmp_path) as session:
        gc.collect()
        gc.disable()
        try:
            checked = session.check_obligations(specs)
            crossed = session.sat_check(specs)
            assert gc.collect() == 0
        finally:
            gc.enable()
    assert [entry["holds"] for entry in checked] == [True, True]
    assert [entry["agreed"] for entry in crossed] == [True, True]


def test_a_connection_within_one_leaf_replaces_its_slot_twice():
    # One leaf whose output 1 feeds its own input 1: the connection fires
    # the input on the state the output left, in the same slot.
    def push(index):
        def fire(state, value):
            queues = list(state)
            nxt = enq(queues[index], value, 2)
            if nxt is not None:
                queues[index] = nxt
                yield tuple(queues)

        return fire

    def pop(index, step):
        def fire(state):
            popped = deq(state[index])
            if popped is not None:
                queues = list(state)
                queues[index] = popped[1]
                yield popped[0] + step, tuple(queues)
                yield popped[0] + 2 * step, tuple(queues)

        return fire

    looped = io_module(
        inputs={IOPort(0): (None, push(0)), IOPort(1): (None, push(1))},
        outputs={IOPort(0): (None, pop(1, 0)), IOPort(1): (None, pop(0, 1))},
        init=[((), ())],
    )
    # A renamed module is a leaf of its own.
    moved = PortMap({IOPort(0): IOPort(3)})
    module = connect_ports(product(looped, rename(fifo(1), moved, moved)), IOPort(1), IOPort(1))
    assert module.origin[0] == "connect"
    # io:1 is free again once connected, and a later leaf may reuse it.
    module = connect_ports(
        product(module, io_module({IOPort(1): (None, push(0))}, {}, init=[((),)])),
        IOPort(0),
        IOPort(1),
    )
    table = SuccessorTable(module)
    stimuli = {IOPort(0): (0, 1)}
    states = reachable(table, stimuli, limit=500)
    assert len(states) > 20
    assert assert_table_matches_fire(table, stimuli, states) > len(states)
