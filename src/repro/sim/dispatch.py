"""The simulation seam: one entry point over the compiled engine.

:func:`simulate_graph` is the single place through which the evaluation
harness (:mod:`repro.eval.runner`), the ablations and the fuzz corpus
reach a cycle simulation.  It lowers the graph once with
:func:`repro.sim.compiled.compile_circuit` — flat step arrays, where a
node's step runs only after an event that can change what it reads (a
token arriving, a full output channel freeing a slot, its pipeline head
coming due) — and runs it to completion.
:meth:`repro.api.Session.simulate` uses the same engine for batches.

The per-component interpreter (:class:`repro.sim.cycle.CycleSimulator`)
is not reachable from here: it is the reference the tests compare the
compiled engine against, cycle for cycle and value for value
(``tests/property/test_sim_backend_equivalence.py``).
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..core.environment import Environment
from ..core.exprhigh import ExprHigh
from ..hls.ir import Kernel
from .compiled import compile_circuit
from .cycle import Edge, SimStats


def simulate_graph(
    graph: ExprHigh,
    env: Environment,
    kernel: Kernel,
    arrays: dict,
    *,
    capacities: Mapping[Edge, int] | None = None,
    latency_of: Callable[[str, dict], int] | None = None,
    max_cycles: int = 5_000_000,
    deadlock_window: int = 10_000,
    trace=None,
) -> SimStats:
    """Simulate one kernel graph to completion on the compiled engine.

    Arguments match :class:`~repro.sim.cycle.CycleSimulator`.
    """
    circuit = compile_circuit(
        graph, env, kernel, capacities=capacities, latency_of=latency_of
    )
    return circuit.run(
        arrays,
        max_cycles=max_cycles,
        deadlock_window=deadlock_window,
        trace=trace,
    )
