"""Bring your own kernel: define a new benchmark and evaluate it.

The downstream-user story: express a loop nest in the mini-IR, get the
four-flow evaluation (in-order dataflow, verified out-of-order, unverified
out-of-order, static schedule) for free — including functional checking
against the sequential interpreter.

The kernel here is a Horner-rule polynomial evaluation per data point:
an inner loop with a floating-point multiply-add recurrence (high II in
order), independent across points (pipelines out of order).

Run with:  python examples/custom_kernel.py
"""

import numpy as np

from repro import Session
from repro.hls.ir import (
    BinOp,
    Const,
    DoWhile,
    Kernel,
    Load,
    OuterLoop,
    Program,
    StoreOp,
    Var,
    run_program,
)


def horner_program(points: int = 24, degree: int = 12) -> Program:
    """y[i] = polynomial(x[i]) by Horner's rule, coefficients in c[]."""
    rng = np.random.default_rng(29)
    loop = DoWhile(
        name="horner",
        state=("acc", "k", "x", "i"),
        body={
            # acc = acc * x + c[k]  — the loop-carried fused recurrence
            "acc": BinOp(
                "fadd",
                BinOp("fmul", Var("acc"), Var("x")),
                Load("c", Var("k")),
            ),
            "k": BinOp("add", Var("k"), Const(1)),
            "x": Var("x"),
            "i": Var("i"),
        },
        condition=BinOp("lt", Var("k"), Const(degree)),
        result_vars=("acc", "i"),
    )
    kernel = Kernel(
        name="horner",
        loop=loop,
        outer=(OuterLoop("i", points),),
        init={
            "acc": Const(0.0),
            "k": Const(0),
            "x": Load("x", Var("i")),
            "i": Var("i"),
        },
        epilogue=(StoreOp("y", Var("i"), Var("acc")),),
        tags=16,
    )
    arrays = {
        "c": rng.standard_normal(degree).astype(np.float64),
        "x": rng.standard_normal(points).astype(np.float64),
        "y": np.zeros(points, dtype=np.float64),
    }
    return Program("horner", arrays, [kernel])


def main() -> None:
    program = horner_program()
    # Sanity: the program computes the actual polynomial ...
    coefficients = program.arrays["c"]
    expected = np.array(
        [np.polyval(coefficients, x) for x in program.arrays["x"]]
    )
    np.testing.assert_allclose(run_program(program).arrays["y"], expected, atol=1e-9)

    with Session(use_cache=False) as session:
        result = session.bench(name="horner", program=program)
    # ... and every dataflow circuit computed what the program does.
    assert all(result[flow].correct for flow in ("DF-IO", "DF-OoO", "GRAPHITI"))
    print("polynomial results verified against numpy.polyval")
    print()
    print(f"{'flow':10s} {'cycles':>8s} {'CP(ns)':>8s} {'exec(ns)':>10s} {'LUT':>6s} {'FF':>6s}")
    for flow in ("DF-IO", "DF-OoO", "GRAPHITI", "Vericert"):
        fr = result[flow]
        print(
            f"{flow:10s} {fr.cycles:>8d} {fr.area.clock_period:>8.2f} "
            f"{fr.execution_time:>10.0f} {fr.area.luts:>6d} {fr.area.ffs:>6d}"
        )
    print()
    print(
        "the multiply-add recurrence serializes the in-order loop; "
        "16 tags let independent points share the FP pipeline"
    )


if __name__ == "__main__":
    main()
