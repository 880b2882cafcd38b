"""The DF-OoO baseline: unverified out-of-order transformation.

This reproduces the approach of Elakhras et al. (FPGA'24) as the paper
evaluates it: the loop's Muxes are replaced by unconditional Merges *without
combining them first* (the per-variable data paths stay independent, only
the conditions are shared), a multi-stream Tagger/Untagger brackets the
loop, and every in-loop component is switched to its tagged variant.

Crucially — and deliberately — there is **no purity check**: the transform
fires even when the loop body performs stores.  That is the bug the paper
found (section 6.2): on bicg the write order of the in-body store is
permuted relative to the sequential program.  The cycle simulator makes the
divergence observable by recording store history.
"""

from __future__ import annotations

from ..core.exprhigh import Endpoint, ExprHigh, NodeSpec
from ..errors import RewriteError
from .marks import LoopMark


def transform_out_of_order(graph: ExprHigh, mark: LoopMark) -> ExprHigh:
    """Apply the DF-OoO transformation in place of the marked loop."""
    result = graph.copy()
    state_count = len(mark.mux_nodes)

    # 1. Remove the Init and the fork tree distributing its token to Muxes.
    _remove_wire_tree(result, mark.init_node)

    # 2. The condition fork (out0 -> branch tree, out1 -> init) loses its
    #    Init consumer; bypass it entirely.
    cond_fork = mark.cond_fork
    cond_src = result.disconnect(cond_fork, "in0")
    branch_side = result.sinks_of(cond_fork, "out0")
    if len(branch_side) != 1:
        raise RewriteError("condition fork has unexpected fan-out")
    result.remove_node(cond_fork)
    result.connect(cond_src.node, cond_src.port, branch_side[0].node, branch_side[0].port)

    # 3. Build the multi-stream Tagger: one entry per state variable, one
    #    return per exit stream.
    exit_streams = _exit_streams(graph, mark)
    tagger_name = f"tagger_{mark.kernel}"
    result.add_node(
        tagger_name,
        NodeSpec.make(
            "Tagger",
            [f"enter{i}" for i in range(state_count)] + [f"ret{i}" for i in range(len(exit_streams))],
            [f"tag{i}" for i in range(state_count)] + [f"exit{i}" for i in range(len(exit_streams))],
            {"tags": mark.tags},
        ),
    )

    # 4. Replace each Mux by a Merge fed from the Tagger.
    for index, mux_name in enumerate(mark.mux_nodes):
        spec = result.nodes[mux_name]
        if spec.typ != "Mux":
            raise RewriteError(f"marked node {mux_name!r} is not a Mux")
        loopback = result.disconnect(mux_name, "in0")
        entry = result.disconnect(mux_name, "in1")
        consumers = result.sinks_of(mux_name, "out0")
        if len(consumers) != 1:
            raise RewriteError(f"mux {mux_name!r} output fan-out unexpected")
        consumer = consumers[0]
        result.remove_node(mux_name)
        merge_name = f"merge_{mark.kernel}_{index}"
        result.add_node(merge_name, NodeSpec.make("Merge", ["in0", "in1"], ["out0"], {}))
        result.connect(loopback.node, loopback.port, merge_name, "in0")
        result.connect(entry.node, entry.port, tagger_name, f"enter{index}")
        result.connect(tagger_name, f"tag{index}", merge_name, "in1")
        result.connect(merge_name, "out0", consumer.node, consumer.port)

    # 5. Route exit streams through the untagger side.
    for slot, (branch_name, consumer) in enumerate(exit_streams):
        result.disconnect(consumer.node, consumer.port)
        result.connect(branch_name, "out1", tagger_name, f"ret{slot}")
        result.connect(tagger_name, f"exit{slot}", consumer.node, consumer.port)

    # 6. Switch every in-loop value component to its tagged variant.
    boundary = {mark.driver, mark.collector, tagger_name}
    for name, spec in list(result.nodes.items()):
        if name in boundary:
            continue
        if spec.typ in ("Operator", "Pure", "Join", "Split", "Branch", "Store"):
            result.replace_spec(name, spec.with_params(tagged=True))

    result.validate()
    return result


def _exit_streams(graph: ExprHigh, mark: LoopMark) -> list[tuple[str, Endpoint]]:
    """(branch, downstream consumer) pairs for each loop exit stream."""
    streams = []
    for branch_name in mark.branch_nodes:
        sinks = graph.sinks_of(branch_name, "out1")
        if len(sinks) != 1:
            raise RewriteError(f"branch {branch_name!r} exit fan-out unexpected")
        streams.append((branch_name, sinks[0]))
    return streams


def _remove_wire_tree(graph: ExprHigh, root: str) -> None:
    """Remove *root* and the pure fan-out tree hanging off its outputs."""
    frontier = [root]
    while frontier:
        node = frontier.pop()
        if node not in graph.nodes:
            continue
        for succ, _, _ in list(graph.successors(node)):
            if graph.nodes[succ].typ == "Fork":
                frontier.append(succ)
        graph.remove_node(node)
