"""Cycle-level simulation of elastic circuits (the ModelSim substitute).

One engine: :func:`simulate_graph` runs the graph-compiled simulator
(:mod:`repro.sim.compiled`).  The per-component interpreter
(:class:`CycleSimulator`, :mod:`repro.sim.cycle`) is the reference the
tests hold the compiled engine bit-identical to.
"""

from .compiled import BatchRun, CompiledCircuit, compile_circuit
from .cycle import Channel, CycleSimulator, SimStats, evaluation_order
from .dispatch import simulate_graph
from .trace import FiringEvent, FiringTrace, render_timeline

__all__ = [
    "BatchRun",
    "Channel",
    "CompiledCircuit",
    "CycleSimulator",
    "SimStats",
    "compile_circuit",
    "evaluation_order",
    "simulate_graph",
    "FiringEvent",
    "FiringTrace",
    "render_timeline",
]
