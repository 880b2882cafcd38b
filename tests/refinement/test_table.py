"""The successor table the checkers step, held to ``Module.fire``.

The game, the SAT encoder and the exhaustive recheck read one
:class:`~repro.refinement.table.SuccessorTable` per module instead of
firing it.  These tests check that the table yields what ``Module.fire``
yields on every state the game reaches, that the checkers really never
fire a composite module, and that a module with no structure to lower (a
single leaf) goes through all three unchanged.
"""

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
from repro.refinement.sat import encode_refinement, solve
from repro.refinement.simulation import (
    SimulationCertificate,
    _GameCache,
    _normalise_stimuli,
    find_weak_simulation,
    recheck_certificate,
)
from repro.refinement.table import SuccessorTable
from repro.rewriting.rules import VERIFY_FACTORY_SPECS, build_rewrite

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


@pytest.mark.parametrize("factory", ["mux_combine", "branch_combine"])
def test_checkers_step_leaves_only(factory):
    [spec] = [s for s in VERIFY_FACTORY_SPECS if s[1] == factory]
    impl, spec_module, stimuli = next(obligation_modules(spec))
    bad_impl, bad_spec = poisoned(impl), poisoned(spec_module)
    with pytest.raises(AssertionError, match="composite"):
        list(bad_impl.internal_steps(next(iter(impl.init))))

    game = find_weak_simulation(impl, spec_module, stimuli)
    poisoned_game = find_weak_simulation(bad_impl, bad_spec, stimuli)
    assert poisoned_game.holds == game.holds
    if game.holds:
        assert poisoned_game.certificate.content_hash() == game.certificate.content_hash()
        bare = SimulationCertificate(
            relation=game.certificate.relation,
            impl_states=game.certificate.impl_states,
            spec_states=game.certificate.spec_states,
            iterations=game.certificate.iterations,
            stimuli=game.certificate.stimuli,
        )
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
    assert "not a state of this module" in result.violation.detail


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
