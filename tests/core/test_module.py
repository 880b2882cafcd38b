"""Tests for module combinators (product ⊎, connect ⇝, rename)."""

import pytest

from repro.components import default_environment
from repro.core.module import (
    connect_ports,
    deq,
    enq,
    first,
    product,
    rename,
)
from repro.core.ports import InternalPort, IOPort, PortMap
from repro.errors import SemanticsError


@pytest.fixture
def env():
    return default_environment(capacity=2)


class TestQueueHelpers:
    def test_enq_adds_to_front(self):
        assert enq((1, 2), 0) == (0, 1, 2)

    def test_enq_respects_capacity(self):
        assert enq((1, 2), 0, capacity=2) is None

    def test_deq_removes_from_end(self):
        assert deq((3, 2, 1)) == (1, (3, 2))

    def test_deq_empty(self):
        assert deq(()) is None

    def test_first_is_oldest(self):
        assert first((3, 2, 1)) == 1
        assert first(()) is None

    def test_fifo_order(self):
        queue = ()
        for v in [10, 20, 30]:
            queue = enq(queue, v)
        out = []
        while deq(queue):
            v, queue = deq(queue)
            out.append(v)
        assert out == [10, 20, 30]


class TestRename:
    def test_ports_renamed(self, env):
        fork = env.lookup("Fork{n=2}")
        renamed = rename(
            fork,
            PortMap({IOPort(0): InternalPort("f", "in0")}),
            PortMap({IOPort(0): InternalPort("f", "out0"), IOPort(1): InternalPort("f", "out1")}),
        )
        assert renamed.input_ports() == {InternalPort("f", "in0")}
        assert InternalPort("f", "out1") in renamed.output_ports()

    def test_collapsing_rename_rejected(self, env):
        # Injectivity is enforced at PortMap construction time already.
        from repro.errors import PortError

        with pytest.raises(PortError):
            PortMap({IOPort(0): InternalPort("f", "x"), IOPort(1): InternalPort("f", "x")})

    def test_partial_rename_collision_rejected(self, env):
        # A rename that maps one port onto another *unmapped* port's name
        # slips past PortMap injectivity and must be caught by rename().
        fork = env.lookup("Fork{n=2}")
        with pytest.raises(SemanticsError):
            rename(fork, PortMap(), PortMap({IOPort(0): IOPort(1)}))


class TestProduct:
    def test_state_is_paired(self, env):
        fork = env.lookup("Fork{n=2}")
        init = env.lookup("Init{value=false}")
        init_renamed = rename(
            init,
            PortMap({IOPort(0): InternalPort("i", "in0")}),
            PortMap({IOPort(0): InternalPort("i", "out0")}),
        )
        combined = product(fork, init_renamed)
        (state,) = combined.init
        assert len(state) == 2

    def test_overlapping_ports_rejected(self, env):
        fork = env.lookup("Fork{n=2}")
        with pytest.raises(SemanticsError):
            product(fork, fork)

    def test_left_transition_leaves_right_untouched(self, env):
        fork = env.lookup("Fork{n=2}")
        init = rename(
            env.lookup("Init{value=false}"),
            PortMap({IOPort(0): InternalPort("i", "in0")}),
            PortMap({IOPort(0): InternalPort("i", "out0")}),
        )
        combined = product(fork, init)
        (state,) = combined.init
        (next_state,) = combined.inputs[IOPort(0)].fire(state, 7)
        assert next_state[1] == state[1]
        assert next_state[0] != state[0]


class TestConnect:
    def test_connect_removes_ports_and_adds_internal(self, env):
        fork = env.lookup("Fork{n=2}")
        init = rename(
            env.lookup("Init{value=false}"),
            PortMap({IOPort(0): InternalPort("i", "in0")}),
            PortMap({IOPort(0): InternalPort("i", "out0")}),
        )
        combined = product(fork, init)
        connected = connect_ports(combined, IOPort(0), InternalPort("i", "in0"))
        assert IOPort(0) not in connected.outputs
        assert InternalPort("i", "in0") not in connected.inputs
        assert len(connected.internals) == len(combined.internals) + 1

    def test_connect_transfers_values(self, env):
        fork = env.lookup("Fork{n=2}")
        init = rename(
            env.lookup("Init{value=false}"),
            PortMap({IOPort(0): InternalPort("i", "in0")}),
            PortMap({IOPort(0): InternalPort("i", "out0")}),
        )
        combined = product(fork, init)
        connected = connect_ports(combined, IOPort(0), InternalPort("i", "in0"))
        (state,) = connected.init
        (after_input,) = connected.inputs[IOPort(0)].fire(state, True)
        # Run the connection internal transition: value moves fork -> init.
        moved = list(connected.internal_steps(after_input))
        assert moved, "connection transition should fire"
        fork_state, init_state = moved[0]
        assert True in init_state[0]

    def test_connect_missing_port_rejected(self, env):
        fork = env.lookup("Fork{n=2}")
        with pytest.raises(SemanticsError):
            connect_ports(fork, IOPort(9), IOPort(0))
