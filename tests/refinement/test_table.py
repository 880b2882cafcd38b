"""The successor table the checkers step, held to ``Module.fire``.

The game, the SAT encoder and the exhaustive recheck read one
:class:`~repro.refinement.table.SuccessorTable` per module instead of
firing it.  These tests check that the table yields what ``Module.fire``
yields on every state the game reaches, that the checkers really never
fire a composite module, that a module with no structure to lower (a
single leaf) goes through all of them unchanged, that the recheck rejects
damaged evidence and walks τ-closures only as far as it needs, and that a
recheck leaves no cyclic garbage behind.
"""

import gc
from itertools import islice

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
    _KIND_NAMES,
    SimulationCertificate,
    _exhaustive_recheck,
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


def related_ids(pairs):
    related = {}
    for sid, tid in pairs:
        related.setdefault(sid, set()).add(tid)
    return related


@pytest.mark.parametrize("spec", VERIFY_FACTORY_SPECS, ids=lambda spec: spec[1])
def test_table_matches_fire_on_every_state_the_game_reaches(spec):
    instances = list(obligation_modules(spec))
    if not instances:
        pytest.skip("rewrite has no obligation")
    for impl, spec_module, stimuli in instances:
        cache = _GameCache(impl, spec_module, stimuli)
        find_weak_simulation(impl, spec_module, stimuli, cache=cache)
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
            result = recheck_certificate(bad_impl, bad_spec, certificate, stimuli)
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
    result = recheck_certificate(impl, spec, certificate, stimuli)
    assert result.holds and result.method == "exhaustive"

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


def test_a_walk_taken_in_pieces_is_the_closure():
    # The recheck stops a τ-walk at its answer and a later move resumes
    # it: the pieces must add up to the game's closure, in its order.
    [spec] = select_specs(["ooo_loop"])
    impl, spec_module, stimuli = next(obligation_modules(spec))
    searched = _GameCache(impl, spec_module, stimuli)
    find_weak_simulation(impl, spec_module, stimuli, cache=searched)
    closures = [
        [searched.spec_table.state(t) for t in searched.closure(tid)]
        for tid in range(len(searched.spec_table.states))
    ]
    assert max(map(len, closures)) > 2
    walked = _GameCache(impl, spec_module, stimuli)
    ids = [walked.spec_table.intern(closure[0]) for closure in closures]
    for tid in ids:
        list(islice(walked.tau_walk(tid), 2))
    for tid, closure in zip(ids, closures):
        assert [walked.spec_table.state(t) for t in walked.tau_walk(tid)] == closure
        assert walked.closure(tid) == tuple(walked.tau_walk(tid))


@pytest.mark.parametrize("name", ["mux_combine", "ooo_loop"])
def test_the_recheck_permits_the_responses_the_game_permits(name):
    # The game and the SAT encoder read each diagram's memoised responses,
    # the recheck reads them lazily: for every move of every related pair,
    # even after every walk was first stopped at one response, the lazy
    # responses are the memoised ones, in the same order.
    [spec] = select_specs([name])
    impl, spec_module, stimuli = next(obligation_modules(spec))
    searched = _GameCache(impl, spec_module, stimuli)
    certificate = find_weak_simulation(impl, spec_module, stimuli, cache=searched).certificate
    memoised = searched.responders()
    lazy = _GameCache(impl, spec_module, stimuli)
    responses = lazy.lazy_responders()
    moves = [
        (kind, port, value, searched.spec_table.intern(t), lazy.spec_table.intern(t))
        for s, t in sorted(certificate.relation, key=repr)
        for kind, port, value, _ in searched.moves(searched.impl_table.intern(s))
    ]
    assert {kind for kind, *_ in moves} == set(range(len(_KIND_NAMES)))
    for kind, port, value, _, tid in moves:
        next(iter(responses[kind](tid, port, value)), None)
    for kind, port, value, searched_tid, tid in moves:
        assert [
            lazy.spec_table.state(t) for t in dict.fromkeys(responses[kind](tid, port, value))
        ] == [searched.spec_table.state(t) for t in memoised[kind](searched_tid, port, value)]


def test_a_recheck_steps_a_fraction_of_what_the_search_steps():
    # mux_combine's related spec states each have their own τ-closure; a
    # recheck stops each walk at the first related response instead of
    # building every candidate list, as the game does.
    [spec] = select_specs(["mux_combine"])
    impl, spec_module, stimuli = next(obligation_modules(spec))
    searched = _GameCache(impl, spec_module, stimuli)
    certificate = find_weak_simulation(impl, spec_module, stimuli, cache=searched).certificate
    rechecked = _GameCache(impl, spec_module, stimuli)
    impl_states, spec_states, rows = certificate.canonical_parts()
    impl_ids = [rechecked.impl_table.intern(s) for s in impl_states]
    spec_ids = [rechecked.spec_table.intern(t) for t in spec_states]
    pairs = [(impl_ids[i], spec_ids[j]) for i, j in rows]
    assert _exhaustive_recheck(rechecked, pairs, related_ids(pairs)) is None
    expanded = len(rechecked._internal_succ)
    assert 0 < expanded < len(searched._internal_succ) / 2


@pytest.fixture(scope="module")
def ooo_loop_certificate():
    [spec] = [s for s in VERIFY_FACTORY_SPECS if s[1] == "ooo_loop"]
    impl, spec_module, stimuli = next(obligation_modules(spec))
    certificate = find_weak_simulation(impl, spec_module, stimuli).certificate
    assert recheck_certificate(impl, spec_module, certificate, stimuli).holds
    return impl, spec_module, stimuli, certificate


@pytest.mark.parametrize("kind", ["input", "output", "internal"])
def test_each_diagram_rejects_a_move_left_without_a_response(ooo_loop_certificate, kind):
    # The exhaustive pass is the one recheck path: for a move of each
    # kind, take every pair over the move's successor out of the relation,
    # and the pass must report that move's diagram at the row it left.
    impl, spec_module, stimuli, certificate = ooo_loop_certificate
    succ = _GameCache(impl, spec_module, stimuli)
    impl_states, spec_states, rows = certificate.canonical_parts()
    impl_ids = [succ.impl_table.intern(s) for s in impl_states]
    spec_ids = [succ.spec_table.intern(t) for t in spec_states]
    pairs = [(impl_ids[i], spec_ids[j]) for i, j in rows]
    related = related_ids(pairs)
    sid, tid, s_next = next(
        (sid, tid, s_next)
        for sid, tid in pairs
        for move_kind, _port, _value, s_next in succ.moves(sid)
        if _KIND_NAMES[move_kind] == kind
    )
    assert _exhaustive_recheck(succ, [(sid, tid)], related) is None
    damaged = {sid: tids for sid, tids in related.items() if sid != s_next}
    violation = _exhaustive_recheck(succ, [(sid, tid)], damaged)
    assert violation is not None and violation.kind == kind
    assert violation.impl_state == succ.impl_table.state(sid)
    assert violation.spec_state == succ.spec_table.state(tid)


def test_a_recheck_leaves_no_cyclic_garbage(ooo_loop_certificate):
    # A reference cycle through a successor table keeps the whole table
    # (every interned state and memo) alive until the cyclic collector
    # runs; a warm pass rechecks 17 certificates, so none may form.
    impl, spec_module, stimuli, certificate = ooo_loop_certificate
    stored = from_bytes(to_bytes(certificate))
    gc.collect()
    gc.disable()
    try:
        assert recheck_certificate(impl, spec_module, stored, stimuli).holds
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_cold_check_and_cross_check_leave_no_cyclic_garbage(tmp_path):
    # Work units run with the cyclic collector paused, which is safe only
    # while a cold pass makes no reference cycles either: the search, the
    # codec, SAT encoding and solving.
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
