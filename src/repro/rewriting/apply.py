"""Rewrite application, local to the matched region (sections 4.2 and 4.6).

The paper applies a rewrite by a round trip through ExprLow (figure 1): the
match is found on ExprHigh, the host is lowered, the matched subgraph is
isolated by reassociation (:func:`repro.core.exprlow.isolate`), replaced by
the syntactic substitution ``e[lhs := rhs]``, the interface ports are
stitched to the names the host uses, and the result is lifted back.

Only the matched region takes part in that round trip's interesting steps.
After isolation the host term has the shape
``connect*(crossing, subterm ⊗ rest)``, and lifting distributes over it:
the lifted graph is the lifted replacement next to the untouched rest
nodes, joined by the crossing connections.  So :func:`apply_rewrite`
lowers only the matched nodes (the region term the substitution replaces)
and the replacement, checks the substitution fires, and builds the output
ExprHigh directly in exactly the order :func:`repro.core.exprhigh.lift`
would produce: replacement nodes, then the rest; crossing edges, then the
replacement's own edges; I/O marks per node.  The whole-graph route stays
executable as ``exprlow.isolate`` / ``build_around`` / ``substitute``, and
``tests/rewriting/test_apply.py`` pins that both give the same graph.

Theorem 4.6 then gives the engine its guarantee: if ⟦rhs⟧ ⊑ ⟦lhs⟧ (checked
on bounded instances by the refinement engine), the output graph refines the
input graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import exprlow
from ..core.encoding import encode_component
from ..core.exprhigh import Endpoint, ExprHigh, NodeSpec, lifted_spec, lower_node
from ..core.ports import InternalPort, IOPort, Port
from ..errors import GraphError, RewriteError
from .rewrite import Match, Rewrite


@dataclass
class Application:
    """Provenance record of one rewrite application."""

    rewrite: str
    matched_nodes: frozenset[str]
    new_nodes: frozenset[str]
    verified: bool


def apply_rewrite(graph: ExprHigh, rewrite: Rewrite, match: Match) -> tuple[ExprHigh, Application]:
    """Apply *rewrite* at *match*, returning the new graph and a record."""
    replacement = rewrite.rhs(match)
    replacement.validate()
    if set(replacement.inputs) != set(rewrite.lhs.inputs):
        raise RewriteError(
            f"rewrite {rewrite.name!r}: rhs inputs {sorted(replacement.inputs)} "
            f"differ from lhs interface {sorted(rewrite.lhs.inputs)}"
        )
    if set(replacement.outputs) != set(rewrite.lhs.outputs):
        raise RewriteError(
            f"rewrite {rewrite.name!r}: rhs outputs {sorted(replacement.outputs)} "
            f"differ from lhs interface {sorted(rewrite.lhs.outputs)}"
        )

    matched = match.host_nodes()
    fresh_names = _fresh_names(graph, replacement, rewrite.name)
    rhs_specs = {fresh_names[name]: spec for name, spec in replacement.nodes.items()}
    host_in = {endpoint: IOPort(i) for i, endpoint in graph.inputs.items()}
    host_out = {endpoint: IOPort(i) for i, endpoint in graph.outputs.items()}

    region = sorted(name for name in matched if name in graph.nodes)
    if not region:
        raise GraphError(f"rewrite {rewrite.name!r}: no matched node is in the host graph")
    sub = _lower_region(graph, region, matched, host_in, host_out)

    # Lower the replacement with fresh instance names; its interface ports
    # come out as io:k and are renamed onto the host-side names.
    renamed_replacement = _rename_graph(replacement, fresh_names)
    rhs_low = renamed_replacement.lower(node_order=sorted(renamed_replacement.nodes))
    in_map, cross_in, rhs_in = _stitch_interface(match.inputs, renamed_replacement.inputs, host_in)
    out_map, cross_out, rhs_out = _stitch_interface(
        match.outputs, renamed_replacement.outputs, host_out
    )

    # The syntactic substitution of section 4.2 replaces the region term by
    # the renamed replacement term; it fires unless the two are equal.
    new_sub = exprlow.rename_ports(rhs_low, in_map, out_map)
    exprlow.check_well_formed(new_sub)
    if new_sub == sub:
        raise RewriteError(f"rewrite {rewrite.name!r}: substitution did not fire")

    # Lift the substituted term: replacement nodes first, then the rest.
    order = [(name, rhs_specs[name], rhs_in, rhs_out) for name in sorted(rhs_specs)]
    order += [
        (name, graph.nodes[name], host_in, host_out)
        for name in sorted(graph.nodes)
        if name not in matched
    ]
    marked = {endpoint.node for endpoint in (*host_in, *host_out, *rhs_in, *rhs_out)}
    new_graph = ExprHigh()
    lifted: list[tuple[str, NodeSpec, list[IOPort | None], list[IOPort | None]]] = []
    for name, spec, in_io, out_io in order:
        # Per port: the external index it carries, or None when internal.
        if name in marked:
            ins = [in_io.get(Endpoint(name, port)) for port in spec.in_ports]
            outs = [out_io.get(Endpoint(name, port)) for port in spec.out_ports]
        else:
            ins = [None] * len(spec.in_ports)
            outs = [None] * len(spec.out_ports)
        if None not in ins and None not in outs:
            # No internal port names the node in the term; lift numbers it.
            name = f"_anon{len(new_graph.nodes)}"
        known = rhs_specs.get(name)
        if known is None and name not in matched:
            known = graph.nodes.get(name)
        encoded = encode_component(spec.typ, spec.param_dict())
        spec = lifted_spec(encoded, known, len(ins), len(outs))
        new_graph.add_node(name, spec)
        lifted.append((name, spec, ins, outs))

    # Crossing edges outermost-first (the sorted host order), then the
    # replacement's own edges (innermost, so in reverse sorted order).
    for dst, src in graph.sorted_connections():
        if dst.node in matched:
            if src.node in matched:
                continue  # internal to the region: replaced
            dst = _stitched(cross_in, dst, "input")
        elif src.node in matched:
            src = _stitched(cross_out, src, "output")
        new_graph.connect(src.node, src.port, dst.node, dst.port)
    for dst, src in reversed(renamed_replacement.sorted_connections()):
        new_graph.connect(src.node, src.port, dst.node, dst.port)

    for name, spec, ins, outs in lifted:
        for port, io in zip(spec.in_ports, ins):
            if io is not None:
                new_graph.mark_input(io.index, name, port)
        for port, io in zip(spec.out_ports, outs):
            if io is not None:
                new_graph.mark_output(io.index, name, port)

    new_graph.validate()
    application = Application(
        rewrite=rewrite.name,
        matched_nodes=matched,
        new_nodes=frozenset(rhs_specs),
        verified=rewrite.verified,
    )
    return new_graph, application


def _lower_region(
    graph: ExprHigh,
    region: list[str],
    matched: frozenset[str],
    host_in: dict[Endpoint, IOPort],
    host_out: dict[Endpoint, IOPort],
) -> exprlow.ExprLow:
    """The subterm ``isolate`` carves out of the lowered host for *region*.

    Bases in sorted order as ``ExprHigh.lower`` emits them; the internal
    connections wrap them in the order ``isolate`` meets them, which is the
    reverse of the sorted edge order.
    """
    bases = [lower_node(name, graph.nodes[name], host_in, host_out) for name in region]
    internal = [
        (dst, src) for name in region for src, dst in graph.in_edges(name) if src.node in matched
    ]
    internal.sort(key=lambda kv: (str(kv[0]), str(kv[1])), reverse=True)
    return exprlow.build(
        bases,
        [(InternalPort(src.node, src.port), InternalPort(dst.node, dst.port)) for dst, src in internal],
    )


def _stitch_interface(
    interface: dict[int, Endpoint],
    rhs_ends: dict[int, Endpoint],
    host_io: dict[Endpoint, IOPort],
) -> tuple[dict[Port, Port], dict[Endpoint, Endpoint], dict[Endpoint, IOPort]]:
    """Where each interface port of the replacement goes in the host.

    A host port marked as external keeps its index on the replacement's
    port.  Any other becomes the replacement's own internal port, and the
    crossing edge that reached the matched host port is re-pointed at it.
    Returns the renaming of the replacement term's ``io:k`` ports, the
    host-to-replacement endpoint map for crossing edges, and the external
    index each replacement endpoint keeps.
    """
    renaming: dict[Port, Port] = {}
    crossing: dict[Endpoint, Endpoint] = {}
    external: dict[Endpoint, IOPort] = {}
    for index, host_endpoint in interface.items():
        rhs_endpoint = rhs_ends[index]
        io = host_io.get(host_endpoint)
        if io is not None:
            renaming[IOPort(index)] = io
            external[rhs_endpoint] = io
        else:
            renaming[IOPort(index)] = InternalPort(rhs_endpoint.node, rhs_endpoint.port)
            crossing[host_endpoint] = rhs_endpoint
    return renaming, crossing, external


def _stitched(crossing: dict[Endpoint, Endpoint], endpoint: Endpoint, kind: str) -> Endpoint:
    renamed = crossing.get(endpoint)
    if renamed is None:
        raise GraphError(
            f"crossing edge reaches matched {kind} port {endpoint} outside the match interface"
        )
    return renamed


def _fresh_names(graph: ExprHigh, replacement: ExprHigh, prefix: str) -> dict[str, str]:
    taken = set(graph.nodes)
    mapping: dict[str, str] = {}
    for name in sorted(replacement.nodes):
        candidate = name
        counter = 0
        while candidate in taken:
            counter += 1
            candidate = f"{name}_{counter}"
        mapping[name] = candidate
        taken.add(candidate)
    return mapping


def _rename_graph(replacement: ExprHigh, mapping: dict[str, str]) -> ExprHigh:
    renamed = ExprHigh()
    for name, spec in replacement.nodes.items():
        renamed.add_node(mapping[name], spec)
    for dst, src in replacement.connections.items():
        renamed.connect(mapping[src.node], src.port, mapping[dst.node], dst.port)
    for index, endpoint in replacement.inputs.items():
        renamed.mark_input(index, mapping[endpoint.node], endpoint.port)
    for index, endpoint in replacement.outputs.items():
        renamed.mark_output(index, mapping[endpoint.node], endpoint.port)
    return renamed
