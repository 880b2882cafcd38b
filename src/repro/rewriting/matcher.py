"""Subgraph matching: locating a rewrite's left-hand side in a host graph.

The matcher finds injective mappings from pattern nodes to host nodes such
that

* component types and port lists agree,
* concrete pattern parameters agree and :class:`Var` metavariables bind
  consistently,
* every pattern-internal connection exists identically in the host,
* every pattern boundary port (marked external input/output) corresponds to
  a host port *not* fed from or feeding into the matched region — the
  crossing edges the rewrite will re-attach.

Patterns are *closed*: every pattern node port is either connected inside
the pattern or marked as interface I/O, so a successful match guarantees the
matched host region touches the rest of the graph only through the
interface.  That is what makes removal and replacement sound.

Candidate enumeration is *anchored* on the host graph's indexes: the first
pattern node (and the first node of any disconnected pattern component)
draws its candidates from the component-type index, and every subsequent
pattern node derives its (at most one, since ports are single-use)
candidate from the host adjacency of an already-mapped neighbour.  The
per-pattern matching order and anchoring plan are computed once per
:class:`Rewrite` and cached on it.  Matches are yielded in sorted
host-name order, so ``first_match`` picks the same occurrence on every run,
and the rewrite engine's fixpoint loop applies a deterministic sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .. import obs
from ..core.exprhigh import Endpoint, ExprHigh, NodeSpec
from ..errors import MatchError
from .rewrite import Match, Rewrite, Var


@dataclass
class MatchStats:
    """Counters filled in by one matcher invocation."""

    candidates: int = 0  # candidate bindings attempted (spec comparisons)


@dataclass(frozen=True)
class _Anchor:
    """How to derive host candidates for one ordered pattern node.

    ``via`` is None for a fresh anchor (candidates come from the type
    index); otherwise it names an already-mapped pattern node and the edge
    direction/ports linking it to this node, from which the unique host
    candidate is read off the adjacency indexes.
    """

    via: str | None = None
    forward: bool = True  # True: via.src_port -> self.dst_port edge
    via_port: str = ""
    own_port: str = ""


@dataclass
class _MatchPlan:
    """The cached per-rewrite matching strategy."""

    order: list[str]
    anchors: list[_Anchor]
    specs: list[NodeSpec]
    stale_guard: tuple = field(default_factory=tuple)


def match_plan(rewrite: Rewrite) -> _MatchPlan:
    """The (cached) matching order and anchoring plan for *rewrite*.

    The plan is invalidated when the pattern's node set changes; rewrites
    are treated as immutable after construction everywhere else.
    """
    pattern = rewrite.lhs
    guard = (len(pattern.nodes), len(pattern.connections))
    plan = getattr(rewrite, "_match_plan", None)
    if plan is not None and plan.stale_guard == guard:
        obs.count("matcher.plan_cache_hits")
        return plan
    obs.count("matcher.plan_cache_misses")
    pattern.validate()  # closed-pattern requirement
    order = _matching_order(pattern)
    if not order:
        raise MatchError(f"rewrite {rewrite.name!r} has an empty pattern")
    anchors: list[_Anchor] = []
    placed: set[str] = set()
    for name in order:
        anchors.append(_anchor_for(pattern, name, placed))
        placed.add(name)
    plan = _MatchPlan(
        order=order,
        anchors=anchors,
        specs=[pattern.nodes[name] for name in order],
        stale_guard=guard,
    )
    rewrite._match_plan = plan  # type: ignore[attr-defined]
    return plan


def _anchor_for(pattern: ExprHigh, name: str, placed: set[str]) -> _Anchor:
    """The first pattern edge linking *name* to an already-placed node."""
    for src, dst in pattern.in_edges(name):
        if src.node in placed:
            return _Anchor(via=src.node, forward=True, via_port=src.port, own_port=dst.port)
    for src, dst in pattern.out_edges(name):
        if dst.node in placed:
            return _Anchor(via=dst.node, forward=False, via_port=dst.port, own_port=src.port)
    return _Anchor()


def find_matches(
    graph: ExprHigh,
    rewrite: Rewrite,
    stats: MatchStats | None = None,
) -> Iterator[Match]:
    """Yield every match of *rewrite*'s lhs in *graph*, deterministically.

    *stats* collects candidate-binding counts.
    """
    plan = match_plan(rewrite)
    if stats is None:
        stats = MatchStats()
    yield from _extend(graph, rewrite.lhs, plan, 0, {}, {}, stats)


def first_match(
    graph: ExprHigh,
    rewrite: Rewrite,
    stats: MatchStats | None = None,
) -> Match | None:
    """The first match in deterministic order, or None."""
    return next(find_matches(graph, rewrite, stats=stats), None)


def _matching_order(pattern: ExprHigh) -> list[str]:
    """Order pattern nodes so each (after the first) touches a prior node.

    Keeps the backtracking search anchored: candidates for later nodes are
    constrained by connections to already-matched nodes.
    """
    names = sorted(pattern.nodes)
    if not names:
        return []
    order = [names[0]]
    placed = {names[0]}
    remaining = [n for n in names if n not in placed]
    while remaining:
        progressed = False
        for name in list(remaining):
            if any(
                (src.node in placed) != (dst.node in placed)
                and name in (src.node, dst.node)
                for dst, src in pattern.connections.items()
            ):
                order.append(name)
                placed.add(name)
                remaining.remove(name)
                progressed = True
        if not progressed:  # disconnected pattern: anchor a fresh component
            order.append(remaining[0])
            placed.add(remaining[0])
            remaining.pop(0)
    return order


def _candidates(
    graph: ExprHigh,
    plan: _MatchPlan,
    depth: int,
    node_map: dict[str, str],
) -> list[str]:
    """Host candidates for the pattern node at *depth*, in sorted order."""
    anchor = plan.anchors[depth]
    if anchor.via is None:
        return sorted(graph.nodes_of_type(plan.specs[depth].typ))
    host_via = node_map[anchor.via]
    if anchor.forward:
        # Pattern edge via.via_port -> this.own_port: the host candidate is
        # whatever the mapped node's output feeds (single-use ports make
        # this unique).
        dst = graph.sink_of(host_via, anchor.via_port)
        if dst is None or dst.port != anchor.own_port:
            return []
        return [dst.node]
    src = graph.source_of(host_via, anchor.via_port)
    if src is None or src.port != anchor.own_port:
        return []
    return [src.node]


def _extend(
    graph: ExprHigh,
    pattern: ExprHigh,
    plan: _MatchPlan,
    depth: int,
    node_map: dict[str, str],
    params: dict[str, object],
    stats: MatchStats,
) -> Iterator[Match]:
    if depth == len(plan.order):
        match = _finalize(graph, pattern, node_map, params)
        if match is not None:
            yield match
        return
    pattern_name = plan.order[depth]
    pattern_spec = plan.specs[depth]
    for host_name in _candidates(graph, plan, depth, node_map):
        if host_name in node_map.values():
            continue
        stats.candidates += 1
        bound = _spec_matches(pattern_spec, graph.nodes[host_name], params)
        if bound is None:
            continue
        node_map[pattern_name] = host_name
        if _connections_consistent(graph, pattern, node_map):
            yield from _extend(graph, pattern, plan, depth + 1, node_map, bound, stats)
        del node_map[pattern_name]


def _spec_matches(
    pattern_spec: NodeSpec,
    host_spec: NodeSpec,
    params: dict[str, object],
) -> dict[str, object] | None:
    """Check spec compatibility; return extended bindings or None."""
    if pattern_spec.typ != host_spec.typ:
        return None
    if pattern_spec.in_ports != host_spec.in_ports:
        return None
    if pattern_spec.out_ports != host_spec.out_ports:
        return None
    bound = dict(params)
    for key, value in pattern_spec.params:
        host_value = host_spec.param(key, _MISSING)
        if isinstance(value, Var):
            if host_value is _MISSING:
                return None
            existing = bound.get(value.name, _MISSING)
            if existing is _MISSING:
                bound[value.name] = host_value
            elif existing != host_value:
                return None
        else:
            if host_value != value:
                return None
    return bound


_MISSING = object()


def _connections_consistent(
    graph: ExprHigh,
    pattern: ExprHigh,
    node_map: dict[str, str],
) -> bool:
    """Check pattern connections among currently mapped nodes."""
    for dst, src in pattern.connections.items():
        if dst.node in node_map and src.node in node_map:
            host_src = graph.source_of(node_map[dst.node], dst.port)
            if host_src != Endpoint(node_map[src.node], src.port):
                return False
    return True


def _finalize(
    graph: ExprHigh,
    pattern: ExprHigh,
    node_map: dict[str, str],
    params: dict[str, object],
) -> Match | None:
    """Validate boundary conditions and assemble the Match."""
    matched_hosts = set(node_map.values())

    inputs: dict[int, Endpoint] = {}
    for index, endpoint in pattern.inputs.items():
        host = Endpoint(node_map[endpoint.node], endpoint.port)
        source = graph.source_of(host.node, host.port)
        if source is not None and source.node in matched_hosts:
            return None  # boundary input is fed from inside the region
        inputs[index] = host

    outputs: dict[int, Endpoint] = {}
    for index, endpoint in pattern.outputs.items():
        host = Endpoint(node_map[endpoint.node], endpoint.port)
        sink = graph.sink_of(host.node, host.port)
        if sink is not None and sink.node in matched_hosts:
            return None  # boundary output feeds back into the region
        outputs[index] = host

    # Host connections touching the region must all be accounted for: either
    # a pattern-internal connection or a crossing at an interface port.
    # Only the matched hosts' incident edges can touch the region, so the
    # check walks the per-node edge lists instead of every graph edge.
    interface_ports = set(inputs.values()) | set(outputs.values())
    internal = {
        (Endpoint(node_map[src.node], src.port), Endpoint(node_map[dst.node], dst.port))
        for dst, src in pattern.connections.items()
    }
    for host_name in matched_hosts:
        for src, dst in graph.in_edges(host_name):
            if src.node in matched_hosts:
                if (src, dst) not in internal:
                    return None  # extra edge inside the region not in the pattern
            elif dst not in interface_ports:
                return None
        for src, dst in graph.out_edges(host_name):
            if dst.node not in matched_hosts and src not in interface_ports:
                return None

    return Match(
        nodes=dict(node_map),
        params=dict(params),
        inputs=inputs,
        outputs=outputs,
        host_specs={node_map[p]: graph.nodes[node_map[p]] for p in node_map},
    )
