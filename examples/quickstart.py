"""Quickstart: build a dataflow graph, check a refinement, apply a rewrite.

Uses the :class:`repro.Session` facade, which owns the component
environment, the result cache and the (optionally parallel) executor; the
lower-level modules it wraps remain importable for fine-grained work, and
step 4 drops down to the RewriteEngine to apply a single rewrite by hand.

Run with:  python examples/quickstart.py
"""

from repro import Session
from repro.components import fork, mux
from repro.core import ExprHigh, denote
from repro.dot import parse_dot, print_dot
from repro.refinement import io_stimuli, refines
from repro.rewriting import RewriteEngine, first_match
from repro.rewriting.rules.combine import mux_combine


def main() -> None:
    # One Session owns the environment, cache, and executor configuration.
    # use_cache=False keeps the example hermetic; pass jobs=4 for parallel
    # benchmark or verification runs.
    session = Session(use_cache=False)
    session.env.capacity = 1  # small queues keep refinement state spaces tiny

    # 1. Build a small graph: two Muxes steered by one forked condition —
    #    the lhs of the paper's figure 3a rewrite.
    graph = ExprHigh()
    graph.add_node("cfork", fork(2))
    graph.add_node("m_a", mux())
    graph.add_node("m_b", mux())
    graph.connect("cfork", "out0", "m_a", "cond")
    graph.connect("cfork", "out1", "m_b", "cond")
    graph.mark_input(0, "cfork", "in0")
    graph.mark_input(1, "m_a", "in0")
    graph.mark_input(2, "m_a", "in1")
    graph.mark_input(3, "m_b", "in0")
    graph.mark_input(4, "m_b", "in1")
    graph.mark_output(0, "m_a", "out0")
    graph.mark_output(1, "m_b", "out0")
    print("input graph (dot):")
    print(print_dot(graph))

    # 2. Denote it into its semantics (a module) and sanity-check
    #    reflexivity of refinement on a bounded instance: both condition
    #    values, one distinguished data value per port.
    module = denote(graph.lower(), session.env)
    stimuli = io_stimuli(
        {0: (True, False), 1: ("a0",), 2: ("a1",), 3: ("b0",), 4: ("b1",)}
    )
    print("graph refines itself:", refines(module, module, stimuli))

    # 3. Discharge the mux-combine rewrite's obligation (rhs ⊑ lhs) through
    #    the session — the executable stand-in for the Lean proof.  With a
    #    cache enabled, a rerun rechecks the stored certificate instead of
    #    searching again.
    [outcome] = session.check_obligations(
        [("repro.rewriting.rules.combine", "mux_combine", {})]
    )
    print(
        f"mux-combine obligation: holds={outcome['holds']} "
        f"[{outcome['mode']}, {outcome['seconds']:.2f}s]"
    )

    # 4. Apply the rewrite through the engine (theorem 4.6 then guarantees
    #    the output refines the input).
    rewrite = mux_combine()
    engine = RewriteEngine()
    match = first_match(graph, rewrite)
    rewritten = engine.apply_at(graph, rewrite, match)
    print("after mux-combine (dot):")
    print(print_dot(rewritten))
    print(f"applications logged: {[(a.rewrite, a.verified) for a in engine.log]}")

    # 5. Dot text round-trips, so results can feed back into a
    #    Dynamatic-style flow.
    reparsed = parse_dot(print_dot(rewritten))
    assert reparsed.nodes == rewritten.nodes
    print("dot round-trip OK")


if __name__ == "__main__":
    main()
