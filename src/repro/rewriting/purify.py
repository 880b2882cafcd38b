"""The region purifier: phase 3 of the pipeline (section 3.2).

After the phase-1/2 normalizations a loop has a single Mux and Branch; what
sits between the Mux output and the Branch/condition-fork inputs is the
*body region*.  This module proves the region acts like a pure function by
actually constructing that function: it composes each region node into a
combinator term over the region's input (Operators become ``tup(f)`` after
a Join, Forks become ``dup``, Splits become projections), passes the term
through the e-graph oracle (the egg substitute) and replaces the region
with ``Pure{fn=term}; Split``.  The oracle's term becomes the tagged Pure's
``fn``, and phase 5 of the pipeline replaces that Pure with the saved
region, so the term is never simulated.  The oracle's rule count is added
to ``composition_steps``; no rewrite order is chosen or replayed.

A region containing an effectful component (a Store) cannot be composed
and the purifier refuses, which is precisely the check that caught the
bicg miscompilation in the original flow (section 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from ..components import EFFECTFUL_TYPES, split
from ..core.exprhigh import Endpoint, ExprHigh, NodeSpec
from ..errors import RewriteError
from . import algebra, egraph
from .rewrite import Match, Rewrite


class PurityError(RewriteError):
    """The loop body cannot be turned into a Pure component."""


@dataclass
class Region:
    """A loop body region: nodes plus its entry and exit wiring."""

    nodes: list[str]
    entry: Endpoint  # region port fed by the Mux output
    data_exit: Endpoint  # region port feeding the Branch data input
    cond_exit: Endpoint  # region port feeding the condition fork


_PURE_REGION_TYPES = frozenset({"Operator", "Pure", "Fork", "Join", "Split", "Sink"})


def discover_region(graph: ExprHigh, mux: str, branch: str, cond_fork: str) -> Region:
    """Walk forward from the Mux output, stopping at the Branch/cond fork."""
    start = graph.sinks_of(mux, "out0")
    if len(start) != 1:
        raise PurityError(f"mux {mux!r} output fans out unexpectedly")
    entry = start[0]
    stop_nodes = {branch, cond_fork, mux}
    region: list[str] = []
    seen: set[str] = set()
    frontier = [entry.node]
    while frontier:
        node = frontier.pop()
        if node in seen or node in stop_nodes:
            continue
        seen.add(node)
        region.append(node)
        for succ, _, _ in graph.successors(node):
            frontier.append(succ)

    data_sources = [src for src in [graph.source_of(branch, "in0")] if src is not None]
    cond_sources = [src for src in [graph.source_of(cond_fork, "in0")] if src is not None]
    if not data_sources or not cond_sources:
        raise PurityError("loop branch or condition fork is not fully connected")
    data_exit, cond_exit = data_sources[0], cond_sources[0]
    if data_exit.node not in seen or cond_exit.node not in seen:
        raise PurityError("branch data / condition are not produced by the loop body")
    return Region(sorted(region), entry, data_exit, cond_exit)


def check_region_pure(graph: ExprHigh, region: Region) -> None:
    """Refuse regions containing effectful or steering components.

    This check is what blocks the unsound bicg transformation: a Store in
    the loop body means iterations must not be reordered.
    """
    for name in region.nodes:
        typ = graph.nodes[name].typ
        if typ in EFFECTFUL_TYPES:
            raise PurityError(
                f"loop body contains effectful component {name!r} ({typ}); "
                "making this loop out-of-order would reorder memory writes"
            )
        if typ not in _PURE_REGION_TYPES:
            raise PurityError(
                f"loop body contains non-functional component {name!r} ({typ})"
            )


def compose_region(graph: ExprHigh, region: Region, env) -> tuple[str, int]:
    """Compose the region into one combinator term over the region input.

    Returns ``(term, steps)`` where *steps* counts the per-node composition
    rewrites performed (reported in the section 6.3 style statistics).
    The term maps the region's input value to the pair
    ``(branch data, condition)``.
    """
    check_region_pure(graph, region)

    # Terms per output endpoint, relative to the region input value.
    terms: dict[Endpoint, str] = {}
    entry_source = graph.source_of(region.entry.node, region.entry.port)
    pending = list(region.nodes)
    steps = 0

    def input_term(node: str, port: str) -> str | None:
        if Endpoint(node, port) == region.entry:
            return "id"
        source = graph.source_of(node, port)
        if source is None:
            return None
        return terms.get(source)

    progress = True
    while pending and progress:
        progress = False
        for name in list(pending):
            spec = graph.nodes[name]
            ins = [input_term(name, port) for port in spec.in_ports]
            if any(term is None for term in ins):
                continue
            pending.remove(name)
            progress = True
            steps += 1
            _apply_node(terms, name, spec, ins)
    if pending:
        raise PurityError(f"loop body has a cycle through {sorted(pending)}")

    data_term = terms.get(region.data_exit)
    cond_term = terms.get(region.cond_exit)
    if data_term is None or cond_term is None:
        raise PurityError("region outputs were not covered by the composition")
    combined = algebra.comp("dup", algebra.par(data_term, cond_term))
    # A modest e-graph budget: loop bodies with wide fan-out compose into
    # large terms, and matching cost grows quadratically with e-graph size.
    with obs.span("purify:oracle", region_nodes=len(region.nodes)) as sp:
        simplified, rule_log = egraph.simplify_with_log(
            combined, iterations=6, node_limit=3_000
        )
        sp.set(compositions=steps, oracle_rules=len(rule_log))
    algebra.ensure(env, simplified)
    # The oracle's rule applications are counted as composition steps; the
    # rules themselves are not replayed as graph rewrites.
    return simplified, steps + len(rule_log)


def _apply_node(terms: dict[Endpoint, str], name: str, spec: NodeSpec, ins: list[str]) -> None:
    typ = spec.typ
    if typ == "Sink":
        return
    if typ == "Fork":
        for port in spec.out_ports:
            terms[Endpoint(name, port)] = ins[0]
        return
    if typ == "Pure":
        terms[Endpoint(name, "out0")] = algebra.comp(ins[0], str(spec.param("fn")))
        return
    if typ == "Operator":
        op = str(spec.param("op"))
        if len(ins) == 1:
            terms[Endpoint(name, "out0")] = algebra.comp(ins[0], op)
        elif len(ins) == 2:
            fanout = algebra.comp("dup", algebra.par(ins[0], ins[1]))
            terms[Endpoint(name, "out0")] = algebra.comp(fanout, algebra.tup(op))
        else:
            # Fold n-ary operators left: ((a, b), c) consumed by a wrapper.
            fanout = algebra.comp("dup", algebra.par(ins[0], ins[1]))
            for extra in ins[2:]:
                fanout = algebra.comp("dup", algebra.par(fanout, extra))
            terms[Endpoint(name, "out0")] = algebra.comp(fanout, f"untree{len(ins)}({op})")
        return
    if typ == "Join":
        terms[Endpoint(name, "out0")] = algebra.comp("dup", algebra.par(ins[0], ins[1]))
        return
    if typ == "Split":
        terms[Endpoint(name, "out0")] = algebra.comp(ins[0], "fst")
        terms[Endpoint(name, "out1")] = algebra.comp(ins[0], "snd")
        return
    raise PurityError(f"cannot compose component type {typ!r}")


def purify_rewrite(graph: ExprHigh, region: Region, env) -> tuple[Rewrite, Match, int]:
    """Build the computed rewrite replacing *region* by ``Pure; Split``.

    Returns the rewrite, the (trivially located) match, and the number of
    composition steps.  The rewrite's lhs is the region subgraph itself;
    its obligation can be checked like any other (see the GCD tests), which
    is the bounded stand-in for the paper's claim that Pure generation is a
    chain of small verified rewrites.
    """
    term, steps = compose_region(graph, region, env)

    lhs = ExprHigh()
    for name in region.nodes:
        lhs.add_node(name, graph.nodes[name])
    region_set = set(region.nodes)
    # Each internal edge enters exactly one region node, so walking every
    # region node's incoming-edge index covers each edge exactly once
    # without scanning the whole host connection map.
    for name in region.nodes:
        for src, dst in graph.in_edges(name):
            if src.node in region_set:
                lhs.connect(src.node, src.port, dst.node, dst.port)
    lhs.mark_input(0, region.entry.node, region.entry.port)
    lhs.mark_output(0, region.data_exit.node, region.data_exit.port)
    lhs.mark_output(1, region.cond_exit.node, region.cond_exit.port)

    def rhs(match: Match) -> ExprHigh:
        replacement = ExprHigh()
        replacement.add_node(
            "body", NodeSpec.make("Pure", ["in0"], ["out0"], {"fn": term})
        )
        replacement.add_node("bodysplit", split())
        replacement.connect("body", "out0", "bodysplit", "in0")
        replacement.mark_input(0, "body", "in0")
        replacement.mark_output(0, "bodysplit", "out0")
        replacement.mark_output(1, "bodysplit", "out1")
        return replacement

    rewrite = Rewrite(
        name="purify-body",
        lhs=lhs,
        rhs=rhs,
        # purify-body carries no obligation, so no instance of it is ever
        # checked automatically; a caller may check one instance's
        # ``rhs ⊑ lhs`` by hand, as the GCD tests do.
        verified=False,
        obligation=None,
        description="Region composed into a single Pure via the e-graph oracle",
    )
    match = Match(
        nodes={name: name for name in region.nodes},
        params={},
        inputs={0: region.entry},
        outputs={0: region.data_exit, 1: region.cond_exit},
        host_specs={name: graph.nodes[name] for name in region.nodes},
    )
    return rewrite, match, steps
