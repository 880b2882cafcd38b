"""Port names and port maps for the ExprLow graph language.

The paper (section 4.1) defines port names ``I`` as either an I/O port
identified by a single natural number, or a local (internal) name identified
by a pair of strings: an instance name paired with a wire name.  Port maps
``P`` are a pair of finite maps, one for inputs and one for outputs, that
rename a component's canonical ports to the names used in the surrounding
graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union

from ..errors import PortError


_set = object.__setattr__


_IO_PORTS: dict[int, "IOPort"] = {}


@dataclass(frozen=True, order=True, init=False)
class IOPort:
    """An external I/O port, identified by a natural number.

    Dangling wires of a graph — its inputs and outputs — carry these names.
    """

    index: int

    # One shared port per int index: lowering, denotation and every
    # component builder ask for the same few ports by the hundred per
    # obligation.
    def __new__(cls, index: int) -> "IOPort":
        port = _IO_PORTS.get(index) if type(index) is int else None
        if port is None:
            if index < 0:
                raise PortError(f"I/O port index must be a natural number, got {index}")
            port = object.__new__(cls)
            _set(port, "index", index)
            _set(port, "_hash", hash((index,)))
            if type(index) is int:
                _IO_PORTS[index] = port
        return port

    # Ports key every successor cache of the refinement layer, so the hash
    # is computed once; it equals the generated ``hash((index,))``, which
    # keeps set iteration order — and everything derived from it — as is.
    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return IOPort, (self.index,)

    def __str__(self) -> str:
        return f"io:{self.index}"


@dataclass(frozen=True, order=True, init=False)
class InternalPort:
    """A local port name: an instance name paired with a wire name."""

    instance: str
    wire: str

    def __init__(self, instance: str, wire: str) -> None:
        if not instance or not wire:
            raise PortError("internal port requires non-empty instance and wire names")
        _set(self, "instance", instance)
        _set(self, "wire", wire)
        _set(self, "_hash", hash((instance, wire)))

    # Cached like IOPort's.  String hashes are salted per process, so a
    # pickled port is rebuilt through the constructor, never copied.
    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return InternalPort, (self.instance, self.wire)

    def __str__(self) -> str:
        return f"{self.instance}.{self.wire}"


Port = Union[IOPort, InternalPort]


def parse_port(text: str) -> Port:
    """Parse the textual form produced by ``str(port)`` back into a port."""
    if text.startswith("io:"):
        try:
            return IOPort(int(text[3:]))
        except ValueError as exc:
            raise PortError(f"malformed I/O port {text!r}") from exc
    if "." in text:
        instance, _, wire = text.partition(".")
        return InternalPort(instance, wire)
    raise PortError(f"malformed port name {text!r}")


class PortMap(Mapping[Port, Port]):
    """An injective finite map from canonical port names to graph port names.

    A component exposes canonical ports (``io:0``, ``io:1``, ...); the port
    map renames them so the component can be wired into a larger graph.  The
    map must be injective, otherwise two distinct component ports would be
    merged, which has no meaning in the semantics.
    """

    __slots__ = ("_forward", "_backward")

    def __init__(self, entries: Mapping[Port, Port] | Iterable[tuple[Port, Port]] = ()):
        if isinstance(entries, dict):  # the usual case, without typing's slow ABC check
            # A dict has no duplicate source, so it is injective exactly
            # when its inverse is as large; lowering makes one per port list.
            backward = {dst: src for src, dst in entries.items()}
            if len(backward) == len(entries):
                self._forward = dict(entries)
                self._backward = backward
                return
            items = entries.items()
        else:
            items = list(entries.items()) if isinstance(entries, Mapping) else list(entries)
        forward: dict[Port, Port] = {}
        backward: dict[Port, Port] = {}
        for src, dst in items:
            if src in forward:
                raise PortError(f"duplicate source port {src} in port map")
            if dst in backward:
                raise PortError(f"port map is not injective: {dst} mapped twice")
            forward[src] = dst
            backward[dst] = src
        self._forward = forward
        self._backward = backward

    def __getitem__(self, port: Port) -> Port:
        return self._forward[port]

    def __iter__(self) -> Iterator[Port]:
        return iter(self._forward)

    def __len__(self) -> int:
        return len(self._forward)

    # The dict's own views and lookups, not the slower generic ones
    # ``Mapping`` derives from ``__getitem__``: denotation compares every
    # base component's port map with its module's ports.
    def __contains__(self, port: object) -> bool:
        return port in self._forward

    def keys(self):
        return self._forward.keys()

    def items(self):
        return self._forward.items()

    def values(self):
        return self._forward.values()

    def get(self, port, default=None):
        return self._forward.get(port, default)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PortMap):
            return self._forward == other._forward
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._forward.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{s} -> {d}" for s, d in sorted(self._forward.items(), key=str))
        return f"PortMap({{{inner}}})"

    def inverse(self) -> "PortMap":
        """The inverse map (valid because port maps are injective)."""
        return PortMap({dst: src for src, dst in self._forward.items()})

    def apply(self, port: Port) -> Port:
        """Rename *port*, returning it unchanged when unmapped."""
        return self._forward.get(port, port)

    def targets(self) -> frozenset[Port]:
        return frozenset(self._backward)

    def compose(self, later: "PortMap") -> "PortMap":
        """Return the map equivalent to applying *self* then *later*."""
        return PortMap({src: later.apply(dst) for src, dst in self._forward.items()})


def sequential_map(instance: str, wires: Iterable[str]) -> PortMap:
    """Map canonical ports ``io:0..n-1`` to ``instance.wire`` names in order."""
    return PortMap({IOPort(i): InternalPort(instance, w) for i, w in enumerate(wires)})


def identity_map(arity: int) -> PortMap:
    """The identity port map on the first *arity* canonical I/O ports."""
    return PortMap({IOPort(i): IOPort(i) for i in range(arity)})
