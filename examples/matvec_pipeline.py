"""The matvec benchmark end to end, with a tag-count sweep.

Shows the evaluation-section story on one kernel: DF-IO vs the verified
out-of-order circuit, plus how the tag budget trades throughput against
flip-flop cost (the Table 3 matvec discussion).

Run with:  python examples/matvec_pipeline.py
"""

from repro import Session
from repro.benchmarks import matvec
from repro.hls.ir import Kernel, Program


def with_tags(program: Program, tags: int) -> Program:
    kernel = program.kernels[0]
    replaced = Kernel(
        name=kernel.name,
        loop=kernel.loop,
        outer=kernel.outer,
        init=kernel.init,
        epilogue=kernel.epilogue,
        tags=tags,
        sequential_outer=kernel.sequential_outer,
    )
    return Program(program.name, program.copy_arrays(), [replaced])


def main() -> None:
    n = 16
    base = matvec(n)
    print(f"matvec {n}x{n}: cycle count and area vs tag budget")
    print(f"{'tags':>5s} {'DF-IO':>8s} {'GRAPHITI':>9s} {'speedup':>8s} {'FFs':>7s}")
    with Session(use_cache=False) as session:
        for tags in (2, 4, 8, 16, 32):
            result = session.bench(name="matvec", program=with_tags(base, tags))
            io = result["DF-IO"]
            graphiti = result["GRAPHITI"]
            print(
                f"{tags:>5d} {io.cycles:>8d} {graphiti.cycles:>9d} "
                f"{io.cycles / graphiti.cycles:>8.2f} {graphiti.area.ffs:>7d}"
            )
    print()
    print("more tags -> more overlapped rows -> fewer cycles, more flip-flops")


if __name__ == "__main__":
    main()
