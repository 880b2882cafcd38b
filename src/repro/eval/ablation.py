"""Ablations over the design choices the evaluation section calls out.

* **Tag-count sweep** — how the tag budget trades throughput against
  flip-flop cost (the Table 3 matvec discussion: 50 tags ⇒ ~6× FFs).
* **Combined vs uncombined steering** — the section 6.2 observation that
  Graphiti's Mux/Branch combination synchronises the per-variable data
  paths, costing cycles relative to DF-OoO's uncombined steering, without
  hurting area or clock much.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..benchmarks import matvec
from ..hls.ir import Kernel, Program
from .runner import BenchmarkResult, flow_graph


@dataclass
class TagSweepPoint:
    tags: int
    df_io_cycles: int
    graphiti_cycles: int
    graphiti_ffs: int

    @property
    def speedup(self) -> float:
        return self.df_io_cycles / self.graphiti_cycles


def retag(program: Program, tags: int) -> Program:
    """The same program with a different tag budget on every kernel."""
    kernels = [
        Kernel(
            name=k.name,
            loop=k.loop,
            outer=k.outer,
            init=k.init,
            epilogue=k.epilogue,
            tags=tags,
            sequential_outer=k.sequential_outer,
        )
        for k in program.kernels
    ]
    return Program(program.name, program.copy_arrays(), kernels)


def tag_sweep(tag_counts=(2, 4, 8, 16, 32), n: int = 16) -> list[TagSweepPoint]:
    """Sweep matvec's tag budget; returns one point per count."""
    from ..api import Session

    session = Session(use_cache=False)
    points = []
    for tags in tag_counts:
        result = session.bench(name="matvec", program=retag(matvec(n), tags))
        points.append(
            TagSweepPoint(
                tags=tags,
                df_io_cycles=result["DF-IO"].cycles,
                graphiti_cycles=result["GRAPHITI"].cycles,
                graphiti_ffs=result["GRAPHITI"].area.ffs,
            )
        )
    return points


@dataclass
class SteeringComparison:
    """Graphiti (combined steering) vs DF-OoO (uncombined) on one benchmark."""

    benchmark: str
    graphiti_cycles: int
    df_ooo_cycles: int
    graphiti_luts: int
    df_ooo_luts: int

    @property
    def synchronization_cost(self) -> float:
        """Cycle overhead of the combined (synchronised) data paths."""
        return self.graphiti_cycles / self.df_ooo_cycles


def steering_comparison(result: BenchmarkResult) -> SteeringComparison:
    return SteeringComparison(
        benchmark=result.name,
        graphiti_cycles=result["GRAPHITI"].cycles,
        df_ooo_cycles=result["DF-OoO"].cycles,
        graphiti_luts=result["GRAPHITI"].area.luts,
        df_ooo_luts=result["DF-OoO"].area.luts,
    )


@dataclass
class BufferAblationPoint:
    """Cycle counts with vs. without the transparent-buffer pairing."""

    flow: str
    paired_cycles: int  # two slots per channel (the Dynamatic default)
    single_cycles: int  # one slot per channel (bubble on every hop)

    @property
    def bubble_penalty(self) -> float:
        return self.single_cycles / self.paired_cycles


def buffer_ablation(n: int = 12) -> list[BufferAblationPoint]:
    """Quantify the buffer-pairing choice of `repro.hls.buffers`.

    Elastic channels with a single slot cannot hold a token and accept the
    next in the same cycle, inserting a bubble on every hop; Dynamatic's
    opaque+transparent buffer pair removes it.  This ablation simulates
    matvec with both channel sizings.
    """
    from ..components import default_environment
    from ..hls.area import latency_of
    from ..hls.buffers import place_buffers
    from ..hls.frontend import compile_program
    from ..sim.dispatch import simulate_graph

    points = []
    for flow in ("DF-IO", "DF-OoO"):
        cycles = {}
        for sizing in ("paired", "single"):
            program = matvec(n)
            env = default_environment()
            ck = compile_program(program, env).kernels[0]
            graph, tags, _ = flow_graph(ck, flow, env)
            placement = place_buffers(graph, tags)
            capacities = dict(placement.capacities)
            if sizing == "single":
                capacities = {edge: max(1, slots - 1) for edge, slots in capacities.items()}
            stats = simulate_graph(
                graph, env, ck.kernel, program.arrays,
                capacities=capacities, latency_of=latency_of,
            )
            cycles[sizing] = stats.cycles
        points.append(
            BufferAblationPoint(
                flow=flow,
                paired_cycles=cycles["paired"],
                single_cycles=cycles["single"],
            )
        )
    return points
