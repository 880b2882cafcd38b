"""ExprHigh: the named, dot-like graph language (figure 1 of the paper).

ExprHigh is the representation rewrites are *matched* on: a finite map from
instance names to components plus a set of connections between named ports,
together with the graph's external inputs and outputs.  Its semantics are
defined by translation to ExprLow (:meth:`ExprHigh.lower`), as in the paper;
lifting back (:func:`lift`) reconstructs an ExprHigh from any well-formed
ExprLow expression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple

from ..errors import GraphError
from . import exprlow
from .encoding import decode_component, encode_component
from .ports import IOPort, InternalPort, Port, PortMap


@dataclass(frozen=True)
class NodeSpec:
    """A component instance: type name, parameters, and named ports.

    Parameters are an immutable sorted tuple of key/value pairs so specs are
    hashable; use :meth:`param` / :meth:`with_params` for access and update.
    """

    typ: str
    in_ports: tuple[str, ...]
    out_ports: tuple[str, ...]
    params: tuple[tuple[str, object], ...] = ()

    @staticmethod
    def make(
        typ: str,
        in_ports: Iterable[str],
        out_ports: Iterable[str],
        params: Mapping[str, object] | None = None,
    ) -> "NodeSpec":
        items = tuple(sorted((params or {}).items()))
        return NodeSpec(typ, tuple(in_ports), tuple(out_ports), items)

    def param(self, key: str, default: object = None) -> object:
        for name, value in self.params:
            if name == key:
                return value
        return default

    def param_dict(self) -> dict[str, object]:
        return dict(self.params)

    def with_params(self, **updates: object) -> "NodeSpec":
        merged = self.param_dict()
        merged.update(updates)
        return NodeSpec.make(self.typ, self.in_ports, self.out_ports, merged)

    def with_type(self, typ: str) -> "NodeSpec":
        return NodeSpec(typ, self.in_ports, self.out_ports, self.params)


class Endpoint(NamedTuple):
    """One end of a connection: an instance name and one of its port names.

    A named tuple, so making, hashing and comparing one runs in C: graph
    construction, validation and lowering make one per port.
    """

    node: str
    port: str

    def __str__(self) -> str:
        return f"{self.node}.{self.port}"


@dataclass
class ExprHigh:
    """A mutable named dataflow graph.

    Invariants maintained by the mutating methods:

    * every connection joins an existing output port to an existing input
      port, each used at most once;
    * external inputs/outputs map distinct I/O indices to otherwise
      unconnected ports.

    Alongside the four public mappings the graph keeps incrementally
    maintained indexes — a reverse adjacency map (source endpoint →
    destination endpoint), per-node edge lists, and a component-type index —
    so adjacency and type queries are O(degree) rather than O(edges).  Every
    mutator validates its arguments *before* touching any state, so a raised
    :class:`GraphError` always leaves the graph (and its indexes) unchanged.
    """

    nodes: dict[str, NodeSpec] = field(default_factory=dict)
    connections: dict[Endpoint, Endpoint] = field(default_factory=dict)  # dst -> src
    inputs: dict[int, Endpoint] = field(default_factory=dict)  # io index -> input port
    outputs: dict[int, Endpoint] = field(default_factory=dict)  # io index -> output port

    def __post_init__(self) -> None:
        self._rebuild_indexes()

    # -- index maintenance --------------------------------------------------

    def _rebuild_indexes(self) -> None:
        """Derive every index from the public mappings (O(V + E)).

        Called on construction; the mutators below keep the indexes in sync
        incrementally, so this never runs on the hot path.  Inner dicts are
        used as insertion-ordered sets to keep iteration deterministic.
        """
        # src endpoint -> dst endpoint (total: each output feeds <= 1 input)
        self._rev: dict[Endpoint, Endpoint] = {
            src: dst for dst, src in self.connections.items()
        }
        # node -> {dst endpoint of each edge leaving / entering the node}
        self._out_edges: dict[str, dict[Endpoint, None]] = {n: {} for n in self.nodes}
        self._in_edges: dict[str, dict[Endpoint, None]] = {n: {} for n in self.nodes}
        # component type -> {node name}
        self._by_type: dict[str, dict[str, None]] = {}
        for name, spec in self.nodes.items():
            self._by_type.setdefault(spec.typ, {})[name] = None
        for dst, src in self.connections.items():
            self._out_edges[src.node][dst] = None
            self._in_edges[dst.node][dst] = None

    def _link(self, src: Endpoint, dst: Endpoint) -> None:
        self.connections[dst] = src
        self._rev[src] = dst
        self._out_edges[src.node][dst] = None
        self._in_edges[dst.node][dst] = None

    def _unlink(self, dst: Endpoint) -> Endpoint:
        src = self.connections.pop(dst)
        del self._rev[src]
        del self._out_edges[src.node][dst]
        del self._in_edges[dst.node][dst]
        return src

    # -- construction -----------------------------------------------------

    def add_node(self, name: str, spec: NodeSpec) -> None:
        if name in self.nodes:
            raise GraphError(f"duplicate node name {name!r}")
        self.nodes[name] = spec
        self._by_type.setdefault(spec.typ, {})[name] = None
        self._out_edges[name] = {}
        self._in_edges[name] = {}

    def replace_spec(self, name: str, spec: NodeSpec) -> None:
        """Swap a node's spec in place, keeping the type index consistent.

        Port lists may only change while every connected or I/O-marked port
        survives; connections are untouched.
        """
        old = self.nodes.get(name)
        if old is None:
            raise GraphError(f"unknown node {name!r}")
        if old.in_ports != spec.in_ports or old.out_ports != spec.out_ports:
            for dst in self._in_edges[name]:
                if dst.port not in spec.in_ports:
                    raise GraphError(f"new spec for {name!r} drops connected port {dst.port!r}")
            for dst in self._out_edges[name]:
                if self.connections[dst].port not in spec.out_ports:
                    raise GraphError(f"new spec for {name!r} drops connected output port")
            for endpoint in list(self.inputs.values()) + list(self.outputs.values()):
                if endpoint.node == name and endpoint.port not in spec.in_ports + spec.out_ports:
                    raise GraphError(f"new spec for {name!r} drops I/O-marked port {endpoint.port!r}")
        if old.typ != spec.typ:
            del self._by_type[old.typ][name]
            if not self._by_type[old.typ]:
                del self._by_type[old.typ]
            self._by_type.setdefault(spec.typ, {})[name] = None
        self.nodes[name] = spec

    def connect(self, src_node: str, src_port: str, dst_node: str, dst_port: str) -> None:
        src = Endpoint(src_node, src_port)
        dst = Endpoint(dst_node, dst_port)
        self._check_output(src)
        self._check_input(dst)
        if dst in self.connections:
            raise GraphError(f"input port {dst} already connected")
        if src in self._rev:
            raise GraphError(f"output port {src} already connected")
        self._link(src, dst)

    def mark_input(self, index: int, node: str, port: str) -> None:
        endpoint = Endpoint(node, port)
        self._check_input(endpoint)
        if index in self.inputs:
            raise GraphError(f"duplicate external input index {index}")
        if endpoint in self.connections:
            raise GraphError(f"external input {endpoint} is already connected")
        self.inputs[index] = endpoint

    def mark_output(self, index: int, node: str, port: str) -> None:
        endpoint = Endpoint(node, port)
        self._check_output(endpoint)
        if index in self.outputs:
            raise GraphError(f"duplicate external output index {index}")
        if endpoint in self._rev:
            raise GraphError(f"external output {endpoint} is already connected")
        self.outputs[index] = endpoint

    def _check_input(self, endpoint: Endpoint) -> None:
        spec = self.nodes.get(endpoint.node)
        if spec is None:
            raise GraphError(f"unknown node {endpoint.node!r}")
        if endpoint.port not in spec.in_ports:
            raise GraphError(f"{endpoint.node!r} has no input port {endpoint.port!r}")

    def _check_output(self, endpoint: Endpoint) -> None:
        spec = self.nodes.get(endpoint.node)
        if spec is None:
            raise GraphError(f"unknown node {endpoint.node!r}")
        if endpoint.port not in spec.out_ports:
            raise GraphError(f"{endpoint.node!r} has no output port {endpoint.port!r}")

    # -- queries -----------------------------------------------------------

    def source_of(self, node: str, port: str) -> Endpoint | None:
        """The endpoint driving input ``node.port``, or None when dangling."""
        return self.connections.get(Endpoint(node, port))

    def sinks_of(self, node: str, port: str) -> list[Endpoint]:
        """Endpoints driven by output ``node.port`` (at most one by invariant)."""
        dst = self._rev.get(Endpoint(node, port))
        return [dst] if dst is not None else []

    def sink_of(self, node: str, port: str) -> Endpoint | None:
        """The endpoint driven by output ``node.port``, or None when dangling."""
        return self._rev.get(Endpoint(node, port))

    def successors(self, node: str) -> Iterator[tuple[str, Endpoint, Endpoint]]:
        """Yield ``(succ_name, src_endpoint, dst_endpoint)`` for each edge out."""
        for dst in self._out_edges.get(node, ()):
            yield dst.node, self.connections[dst], dst

    def predecessors(self, node: str) -> Iterator[tuple[str, Endpoint, Endpoint]]:
        """Yield ``(pred_name, src_endpoint, dst_endpoint)`` for each edge in."""
        for dst in self._in_edges.get(node, ()):
            src = self.connections[dst]
            yield src.node, src, dst

    def out_edges(self, node: str) -> Iterator[tuple[Endpoint, Endpoint]]:
        """Yield ``(src, dst)`` for each connection leaving *node*."""
        for dst in self._out_edges.get(node, ()):
            yield self.connections[dst], dst

    def in_edges(self, node: str) -> Iterator[tuple[Endpoint, Endpoint]]:
        """Yield ``(src, dst)`` for each connection entering *node*."""
        for dst in self._in_edges.get(node, ()):
            yield self.connections[dst], dst

    def nodes_of_type(self, typ: str) -> list[str]:
        """Node names with component type *typ*, in insertion order."""
        return list(self._by_type.get(typ, ()))

    def sorted_connections(self) -> list[tuple[Endpoint, Endpoint]]:
        """``(dst, src)`` pairs in the canonical (lexicographic) edge order.

        This is the one edge ordering shared by the printer, the lowering
        translation and the cache fingerprints.
        """
        return sorted(self.connections.items(), key=lambda kv: (str(kv[0]), str(kv[1])))

    def unconnected_inputs(self) -> list[Endpoint]:
        bound = {(e.node, e.port) for e in (*self.connections, *self.inputs.values())}
        return [
            Endpoint(name, port)
            for name, spec in self.nodes.items()
            for port in spec.in_ports
            if (name, port) not in bound
        ]

    def unconnected_outputs(self) -> list[Endpoint]:
        bound = {(e.node, e.port) for e in (*self._rev, *self.outputs.values())}
        return [
            Endpoint(name, port)
            for name, spec in self.nodes.items()
            for port in spec.out_ports
            if (name, port) not in bound
        ]

    def validate(self) -> None:
        """Check the graph is closed: every port connected or marked I/O."""
        loose_in = self.unconnected_inputs()
        loose_out = self.unconnected_outputs()
        if loose_in or loose_out:
            raise GraphError(
                "graph has unconnected ports: "
                f"inputs {sorted(map(str, loose_in))}, outputs {sorted(map(str, loose_out))}"
            )

    # -- mutation used by the rewriting engine ------------------------------

    def remove_node(self, name: str) -> NodeSpec:
        """Remove a node and every connection or I/O marking that touches it.

        Atomic: an unknown name raises before any state is touched.  Edges
        are unlinked incrementally through the indexes (O(degree)) rather
        than by rebuilding the connection map.
        """
        spec = self.nodes.get(name)
        if spec is None:
            raise GraphError(f"unknown node {name!r}")
        # Merge the two edge lists so a self-loop is unlinked exactly once.
        for dst in list({**self._out_edges[name], **self._in_edges[name]}):
            self._unlink(dst)
        del self.nodes[name]
        del self._by_type[spec.typ][name]
        if not self._by_type[spec.typ]:
            del self._by_type[spec.typ]
        del self._out_edges[name]
        del self._in_edges[name]
        for index in [i for i, e in self.inputs.items() if e.node == name]:
            del self.inputs[index]
        for index in [i for i, e in self.outputs.items() if e.node == name]:
            del self.outputs[index]
        return spec

    def disconnect(self, dst_node: str, dst_port: str) -> Endpoint:
        """Remove the connection driving ``dst_node.dst_port``; return its source."""
        dst = Endpoint(dst_node, dst_port)
        if dst not in self.connections:
            raise GraphError(f"input port {dst} is not connected")
        return self._unlink(dst)

    def copy(self) -> "ExprHigh":
        # Every field and index is assigned below, so skip ``__init__``
        # (which would build empty indexes only to discard them).
        clone = object.__new__(ExprHigh)
        clone.nodes = dict(self.nodes)
        clone.connections = dict(self.connections)
        clone.inputs = dict(self.inputs)
        clone.outputs = dict(self.outputs)
        clone._rev = dict(self._rev)
        clone._out_edges = {name: dict(edges) for name, edges in self._out_edges.items()}
        clone._in_edges = {name: dict(edges) for name, edges in self._in_edges.items()}
        clone._by_type = {typ: dict(names) for typ, names in self._by_type.items()}
        return clone

    # -- translation to / from ExprLow --------------------------------------

    def lower(self, node_order: Iterable[str] | None = None) -> exprlow.ExprLow:
        """Translate to ExprLow using the canonical product fold.

        Node order defaults to sorted instance names; the rewrite engine
        passes an explicit order to line the matched subgraph up with the
        left-hand side pattern.
        """
        self.validate()
        order = list(node_order) if node_order is not None else sorted(self.nodes)
        if set(order) != set(self.nodes):
            raise GraphError("node_order must be a permutation of the node names")

        input_names = {endpoint: IOPort(i) for i, endpoint in self.inputs.items()}
        output_names = {endpoint: IOPort(i) for i, endpoint in self.outputs.items()}
        bases = [
            lower_node(name, self.nodes[name], input_names, output_names) for name in order
        ]
        connections = [
            (InternalPort(src.node, src.port), InternalPort(dst.node, dst.port))
            for dst, src in self.sorted_connections()
        ]
        return exprlow.build(bases, connections)


def lower_node(
    name: str,
    spec: NodeSpec,
    input_names: Mapping[Endpoint, IOPort],
    output_names: Mapping[Endpoint, IOPort],
) -> exprlow.Base:
    """The base component a node lowers to.

    Canonical port ``io:k`` maps to the external port the graph marks on
    the node's k-th port (*input_names*/*output_names*), or else to the
    internal name ``name.port``.
    """
    # A plain ``(name, port)`` pair finds an Endpoint key without making
    # one: a named tuple hashes and compares as the tuple of its fields.
    in_map: dict[Port, Port] = {}
    for idx, port in enumerate(spec.in_ports):
        in_map[IOPort(idx)] = input_names.get((name, port)) or InternalPort(name, port)
    out_map: dict[Port, Port] = {}
    for idx, port in enumerate(spec.out_ports):
        out_map[IOPort(idx)] = output_names.get((name, port)) or InternalPort(name, port)
    encoded = encode_component(spec.typ, spec.param_dict())
    return exprlow.Base(encoded, PortMap(in_map), PortMap(out_map))


def lift(expr: exprlow.ExprLow, specs: Mapping[str, NodeSpec] | None = None) -> ExprHigh:
    """Reconstruct an ExprHigh from a well-formed ExprLow expression.

    Instance names are recovered from internal port names; purely I/O ports
    keep their indices.  When *specs* is given it supplies port naming and
    parameters for each instance (keyed by instance name); otherwise ports
    are named ``in0..``/``out0..`` positionally.
    """
    exprlow.check_well_formed(expr)
    graph = ExprHigh()
    port_owner: dict[Port, Endpoint] = {}

    for index, base in enumerate(expr.bases()):
        name = _instance_name(base, index)
        known = specs.get(name) if specs else None
        spec = lifted_spec(base.typ, known, len(base.inputs), len(base.outputs))
        graph.add_node(name, spec)
        for idx in range(len(base.inputs)):
            target = base.inputs[IOPort(idx)]
            port_owner[target] = Endpoint(name, spec.in_ports[idx])
        for idx in range(len(base.outputs)):
            target = base.outputs[IOPort(idx)]
            # Outputs and inputs live in separate namespaces in a PortMap, so
            # tag the key with direction to avoid collisions on IOPort names.
            port_owner[("out", target)] = Endpoint(name, spec.out_ports[idx])  # type: ignore[index]

    connected_inputs: set[Port] = set()
    connected_outputs: set[Port] = set()
    for output, input_ in expr.connections():
        src = port_owner.get(("out", output))  # type: ignore[arg-type]
        dst = port_owner.get(input_)
        if src is None or dst is None:
            raise GraphError(f"connection {output} ⇝ {input_} references unknown ports")
        graph.connect(src.node, src.port, dst.node, dst.port)
        connected_inputs.add(input_)
        connected_outputs.add(output)

    for port, endpoint in port_owner.items():
        if isinstance(port, tuple):
            direction, name = port
            if isinstance(name, IOPort) and name not in connected_outputs:
                graph.mark_output(name.index, endpoint.node, endpoint.port)
        elif isinstance(port, IOPort) and port not in connected_inputs:
            graph.mark_input(port.index, endpoint.node, endpoint.port)
    return graph


def lifted_spec(encoded: str, known: NodeSpec | None, n_in: int, n_out: int) -> NodeSpec:
    """The spec :func:`lift` gives a base with component string *encoded*.

    Type and parameters come from the string; port names from *known*
    when given, else positionally ``in0..``/``out0..``.
    """
    typ, params = decode_component(encoded)
    if known is None:
        return NodeSpec.make(
            typ, [f"in{i}" for i in range(n_in)], [f"out{i}" for i in range(n_out)], params
        )
    return NodeSpec.make(typ, known.in_ports, known.out_ports, params)


def _instance_name(base: exprlow.Base, index: int) -> str:
    for target in list(base.inputs.targets()) + list(base.outputs.targets()):
        if isinstance(target, InternalPort):
            return target.instance
    return f"_anon{index}"
