"""The figure 2 traces: in-order vs out-of-order GCD.

Run with:  pytest benchmarks/bench_gcd.py --benchmark-only -s
"""

import numpy as np
import pytest

from repro import Session
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
        "gcd",
        ("a", "b", "i"),
        {"a": Var("b"), "b": BinOp("mod", Var("a"), Var("b")), "i": Var("i")},
        UnOp("ne0", Var("b")),
        ("a", "i"),
    )
    kernel = Kernel(
        "gcd",
        loop,
        (OuterLoop("i", n),),
        {"a": Load("arr1", Var("i")), "b": Load("arr2", Var("i")), "i": Var("i")},
        (StoreOp("result", Var("i"), Var("a")),),
        tags=6,
    )
    return Program(
        "gcd",
        {
            "arr1": rng.integers(10, 4000, n),
            "arr2": rng.integers(10, 4000, n),
            "result": np.zeros(n, dtype=np.int64),
        },
        [kernel],
    )


def bench_gcd():
    """The gcd program through all four flows."""
    with Session(use_cache=False) as session:
        return session.bench(name="gcd", program=gcd_program())


@pytest.fixture(scope="module")
def gcd_result():
    return bench_gcd()


def test_print_traces(gcd_result, once):
    from repro.eval.runner import simulate_flow
    from repro.sim.trace import render_timeline

    print()
    print("figure 2d/2e — GCD over two arrays")
    for flow in ("DF-IO", "DF-OoO", "GRAPHITI", "Vericert"):
        fr = gcd_result[flow]
        print(f"  {flow:10s} {fr.cycles:>6d} cycles  correct={fr.correct}")
    print()
    for flow, figure in (("DF-IO", "figure 2d (in-order)"), ("GRAPHITI", "figure 2e (out-of-order)")):
        stats, trace, graph = simulate_flow(gcd_program(), flow)
        mod = next(
            name
            for name, spec in graph.nodes.items()
            if spec.typ == "Operator" and str(spec.param("op")).startswith("mod")
        )
        print(f"  {figure}: modulo-unit initiations")
        art = render_timeline(
            trace, [mod], end=min(stats.cycles, 128), width=64,
            labels={mod: "mod unit"}, initiations_only=True,
        )
        for line in art.splitlines():
            print("   ", line)
        print(
            f"    utilization {trace.utilization(mod, stats.cycles):.0%}, "
            f"IIs {sorted(set(trace.initiation_intervals(mod)))[:4]}"
        )


def test_modulo_pipeline_filled(gcd_result, once):
    """The whole point of figure 2e: tagged execution keeps the pipelined
    modulo unit busy, cutting cycles by several x."""
    assert gcd_result["GRAPHITI"].cycles < gcd_result["DF-IO"].cycles / 2


def test_results_correct_in_all_flows(gcd_result, once):
    for flow in ("DF-IO", "DF-OoO", "GRAPHITI"):
        assert gcd_result[flow].correct


@pytest.mark.benchmark(group="gcd")
def test_benchmark_gcd_simulation(benchmark):
    benchmark.pedantic(bench_gcd, rounds=1, iterations=1)
