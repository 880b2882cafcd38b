"""Tests for port names and port maps."""

import pickle

import pytest

from repro.core.ports import (
    InternalPort,
    IOPort,
    PortMap,
    identity_map,
    parse_port,
    sequential_map,
)
from repro.errors import PortError


class TestIOPort:
    def test_round_trip_through_str(self):
        port = IOPort(3)
        assert parse_port(str(port)) == port

    def test_negative_index_rejected(self):
        with pytest.raises(PortError):
            IOPort(-1)

    def test_ordering_is_by_index(self):
        assert IOPort(0) < IOPort(1) < IOPort(5)

    def test_hashable_and_equal(self):
        assert {IOPort(2): "x"}[IOPort(2)] == "x"

    def test_hash_is_the_field_tuples(self):
        # Set iteration order, and every output that follows it, rests on
        # this value staying what the generated dataclass hash gave.
        assert hash(IOPort(3)) == hash((3,))

    def test_pickled_port_equals_and_hashes_alike(self):
        assert pickle.dumps(IOPort(4)).count(b"_hash") == 0
        port = pickle.loads(pickle.dumps(IOPort(4)))
        assert port == IOPort(4) and hash(port) == hash((4,))

    def test_one_port_per_index(self):
        assert IOPort(6) is IOPort(6)
        assert pickle.loads(pickle.dumps(IOPort(6))) is IOPort(6)

    def test_a_non_int_index_does_not_take_the_shared_port(self):
        assert IOPort(True) == IOPort(1)
        assert type(IOPort(1).index) is int and str(IOPort(1)) == "io:1"


class TestInternalPort:
    def test_round_trip_through_str(self):
        port = InternalPort("mux1", "in0")
        assert parse_port(str(port)) == port

    def test_empty_names_rejected(self):
        with pytest.raises(PortError):
            InternalPort("", "in0")
        with pytest.raises(PortError):
            InternalPort("node", "")

    def test_distinct_from_io_port(self):
        assert InternalPort("a", "b") != IOPort(0)

    def test_hash_is_the_field_tuples(self):
        assert hash(InternalPort("a", "b")) == hash(("a", "b"))

    def test_unpickling_recomputes_the_hash(self):
        # String hashes are salted per process, so a pickled hash would be
        # wrong in another process; unpickling must go through __init__.
        assert pickle.dumps(InternalPort("a", "b")).count(b"_hash") == 0
        port = pickle.loads(pickle.dumps(InternalPort("a", "b")))
        assert port == InternalPort("a", "b") and hash(port) == hash(("a", "b"))
        assert repr(port) == "InternalPort(instance='a', wire='b')"


class TestParsePort:
    def test_malformed_text_rejected(self):
        with pytest.raises(PortError):
            parse_port("garbage")

    def test_malformed_io_index_rejected(self):
        with pytest.raises(PortError):
            parse_port("io:notanumber")


class TestPortMap:
    def test_lookup_and_len(self):
        pm = PortMap({IOPort(0): InternalPort("n", "a"), IOPort(1): InternalPort("n", "b")})
        assert pm[IOPort(0)] == InternalPort("n", "a")
        assert len(pm) == 2

    def test_injectivity_enforced(self):
        with pytest.raises(PortError, match="mapped twice"):
            PortMap({IOPort(0): InternalPort("n", "a"), IOPort(1): InternalPort("n", "a")})

    def test_views_and_lookups_read_the_map(self):
        source = {IOPort(0): InternalPort("n", "a"), IOPort(1): IOPort(7)}
        pm = PortMap(source)
        source[IOPort(2)] = IOPort(8)  # the map keeps its own copy
        assert pm.keys() == {IOPort(0), IOPort(1)}
        assert list(pm.items()) == [(IOPort(0), InternalPort("n", "a")), (IOPort(1), IOPort(7))]
        assert list(pm.values()) == [InternalPort("n", "a"), IOPort(7)]
        assert IOPort(1) in pm and IOPort(2) not in pm
        assert pm.get(IOPort(1)) == IOPort(7) and pm.get(IOPort(2), "none") == "none"

    def test_duplicate_source_rejected(self):
        with pytest.raises(PortError):
            PortMap([(IOPort(0), IOPort(1)), (IOPort(0), IOPort(2))])

    def test_apply_defaults_to_identity(self):
        pm = PortMap({IOPort(0): IOPort(5)})
        assert pm.apply(IOPort(0)) == IOPort(5)
        assert pm.apply(IOPort(9)) == IOPort(9)

    def test_inverse_round_trips(self):
        pm = sequential_map("n", ["a", "b", "c"])
        inv = pm.inverse()
        for src in pm:
            assert inv[pm[src]] == src

    def test_compose(self):
        first = PortMap({IOPort(0): IOPort(1)})
        second = PortMap({IOPort(1): IOPort(2)})
        assert first.compose(second)[IOPort(0)] == IOPort(2)

    def test_equality_and_hash(self):
        a = sequential_map("n", ["x", "y"])
        b = sequential_map("n", ["x", "y"])
        assert a == b
        assert hash(a) == hash(b)

    def test_identity_map(self):
        pm = identity_map(3)
        assert all(pm[IOPort(i)] == IOPort(i) for i in range(3))

    def test_targets(self):
        pm = sequential_map("n", ["a"])
        assert pm.targets() == frozenset({InternalPort("n", "a")})
