"""Heuristic buffer placement (the Gurobi/MILP substitute).

Dynamatic sizes and places buffers by solving an MILP; the paper uses the
modified strategy of Josipović et al. to avoid deadlocks in tagged circuits.
This pass reproduces what the evaluation needs:

* every channel has one slot by default (registered hop);
* loop-back channels (edges that close a cycle) get a second slot so a loop
  iteration can commit while the next is issued;
* channels inside a tagged region are widened so up to ``tags`` loop
  instances can be in flight — the extra-parallelism buffering the paper
  charges to the tagged circuits' area (Table 3).

Returns the per-edge capacity map for the cycle simulator plus the number
of *extra* slots added (for the area model).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.exprhigh import Endpoint, ExprHigh

Edge = tuple[Endpoint, Endpoint]


@dataclass
class BufferPlacement:
    capacities: dict[Edge, int]
    extra_slots: int


def place_buffers(graph: ExprHigh, tags: int | None = None) -> BufferPlacement:
    """Compute channel capacities for *graph*.

    *tags* widens tagged-region channels; pass the loop's tag count for
    transformed circuits and ``None`` for in-order ones.
    """
    capacities: dict[Edge, int] = {}
    extra = 0

    back_edges = _back_edges(graph)
    tagged_nodes = set(graph.nodes_of_type("Merge"))
    tagged_nodes.update(
        name for name, spec in graph.nodes.items() if spec.param("tagged")
    )

    for dst, src in graph.connections.items():
        edge = (src, dst)
        # Two slots per channel by default: the opaque+transparent buffer
        # pair Dynamatic inserts so handshake back-pressure does not insert
        # a bubble on every hop.  The pair's registers are part of each
        # component's base FF cost; only slots beyond it count as extra.
        slots = 2
        if (src.node, dst.node) in back_edges:
            slots = 3  # loop-back channels get an extra slot of slack
        if tags and (src.node in tagged_nodes or dst.node in tagged_nodes):
            # Tagged-region channels double as aligner windows: with up to
            # ``tags`` loop instances in flight, independently merging
            # variable paths can drift by the full tag budget, so the
            # window must cover it to stay deadlock-free (the modified
            # buffer-placement strategy the paper adopts from Elakhras et
            # al.).  The storage is charged to the Tagger's per-tag area,
            # not per channel slot, so only a bounded share counts here.
            slots = max(slots, tags)
            extra += min(slots, 4) - 2
        else:
            extra += slots - 2
        capacities[edge] = slots
    return BufferPlacement(capacities=capacities, extra_slots=extra)


def _back_edges(graph: ExprHigh) -> set[tuple[str, str]]:
    """Edges that close a cycle, found via DFS over a deterministic order.

    Walks the graph's per-node successor index directly; distinct successor
    names in sorted order give the same traversal the old materialised
    digraph produced.  The walk keeps its own stack of successor iterators:
    a recursive closure would form a reference cycle that pins *graph*
    until the cyclic collector runs.
    """
    back: set[tuple[str, str]] = set()
    seen: set[str] = set()

    def successors(node: str):
        return iter(sorted({succ for succ, _, _ in graph.successors(node)}))

    for root in sorted(graph.nodes):
        if root in seen:
            continue
        seen.add(root)
        on_path = {root}
        path = [(root, successors(root))]
        while path:
            node, pending = path[-1]
            for succ in pending:
                if succ in on_path:
                    back.add((node, succ))
                elif succ not in seen:
                    seen.add(succ)
                    on_path.add(succ)
                    path.append((succ, successors(succ)))
                    break
            else:
                path.pop()
                on_path.discard(node)
    return back
