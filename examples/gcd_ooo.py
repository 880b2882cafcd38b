"""The paper's running example: out-of-order GCD (figures 2 and 4).

Compiles the inlined array-GCD program of figure 2a to a dataflow circuit,
runs the five-phase Graphiti pipeline to obtain the tagged out-of-order
circuit of figure 2c, and compares the execution traces (figures 2d/2e):
the in-order circuit cannot pipeline the modulo unit, the out-of-order one
can.

Run with:  python examples/gcd_ooo.py
"""

import numpy as np

from repro.benchmarks import load_benchmark  # noqa: F401  (same API family)
from repro import Session
from repro.components import default_environment
from repro.hls.ir import (
    BinOp,
    DoWhile,
    Kernel,
    Load,
    OuterLoop,
    Program,
    StoreOp,
    UnOp,
    Var,
)


def gcd_program(n: int = 12) -> Program:
    rng = np.random.default_rng(3)
    loop = DoWhile(
        name="gcd",
        state=("a", "b", "i"),
        body={
            "a": Var("b"),
            "b": BinOp("mod", Var("a"), Var("b")),
            "i": Var("i"),
        },
        condition=UnOp("ne0", Var("b")),
        result_vars=("a", "i"),
    )
    kernel = Kernel(
        name="gcd",
        loop=loop,
        outer=(OuterLoop("i", n),),
        init={
            "a": Load("arr1", Var("i")),
            "b": Load("arr2", Var("i")),
            "i": Var("i"),
        },
        epilogue=(StoreOp("result", Var("i"), Var("a")),),
        tags=6,
    )
    arrays = {
        "arr1": rng.integers(10, 4000, n),
        "arr2": rng.integers(10, 4000, n),
        "result": np.zeros(n, dtype=np.int64),
    }
    return Program("gcd", arrays, [kernel])


def main() -> None:
    program = gcd_program()
    with Session(use_cache=False) as session:
        result = session.bench(name="gcd", program=program)

    expected = [
        int(np.gcd(a, b)) for a, b in zip(program.arrays["arr1"], program.arrays["arr2"])
    ]
    print("GCDs:", expected)
    print()
    print(f"{'flow':10s} {'cycles':>8s} {'CP(ns)':>8s} {'exec(ns)':>10s} correct")
    for flow in ("DF-IO", "DF-OoO", "GRAPHITI", "Vericert"):
        fr = result[flow]
        print(
            f"{flow:10s} {fr.cycles:>8d} {fr.area.clock_period:>8.2f} "
            f"{fr.execution_time:>10.0f} {fr.correct}"
        )
    speedup = result["DF-IO"].cycles / result["GRAPHITI"].cycles
    print()
    print(
        f"figure 2d vs 2e: the tagged circuit pipelines the modulo unit, "
        f"{speedup:.1f}x fewer cycles than the sequential loop"
    )

    # The actual execution traces of figures 2d and 2e: when is the modulo
    # unit busy?  Sparse pulses in order, back-to-back out of order.
    from repro.eval.runner import simulate_flow
    from repro.sim.trace import render_timeline

    print()
    for flow, figure in (("DF-IO", "figure 2d (in-order)"), ("GRAPHITI", "figure 2e (out-of-order)")):
        stats, trace, graph = simulate_flow(gcd_program(), flow)
        mod_nodes = [
            name
            for name, spec in graph.nodes.items()
            if spec.typ == "Operator" and str(spec.param("op")).startswith("mod")
        ]
        print(figure)
        print(
            render_timeline(
                trace, mod_nodes, end=min(stats.cycles, 128), width=64,
                labels={mod_nodes[0]: "mod unit"}, initiations_only=True,
            )
        )
        print(
            f"  utilization: {trace.utilization(mod_nodes[0], stats.cycles):.0%}, "
            f"measured II: {sorted(set(trace.initiation_intervals(mod_nodes[0])))[:4]}"
        )
        print()


if __name__ == "__main__":
    main()
