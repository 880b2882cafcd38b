"""Backend dispatch: one entry point over both simulation engines.

:func:`simulate_graph` is the single seam through which every caller —
:meth:`repro.api.Session.simulate`, the evaluation harness
(:mod:`repro.eval.runner`), the ablations, and the ``repro sim`` CLI —
reaches a cycle simulation.  Two backends sit behind it:

* ``"compiled"`` (default): :func:`repro.sim.compiled.compile_circuit` —
  the graph is lowered once into flat step arrays, and a node's step runs
  only after an event that can change what it reads (a token arriving, a
  full output channel freeing a slot, its pipeline head coming due);
* ``"interp"``: :class:`repro.sim.cycle.CycleSimulator` — the original
  per-cycle, per-component interpreter, kept as the differential-testing
  oracle.

Both backends are cycle- and value-identical by construction (enforced by
``tests/property/test_sim_backend_equivalence.py``), so the choice is a
pure performance knob.
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..core.environment import Environment
from ..core.exprhigh import ExprHigh
from ..hls.ir import Kernel
from .cycle import CycleSimulator, Edge, SimStats

#: valid values for the ``backend`` argument, in preference order.
BACKENDS = ("compiled", "interp")


def simulate_graph(
    graph: ExprHigh,
    env: Environment,
    kernel: Kernel,
    arrays: dict,
    *,
    capacities: Mapping[Edge, int] | None = None,
    latency_of: Callable[[str, dict], int] | None = None,
    backend: str = "compiled",
    max_cycles: int = 5_000_000,
    deadlock_window: int = 10_000,
    trace=None,
) -> SimStats:
    """Simulate one kernel graph to completion on the chosen *backend*.

    Arguments match :class:`~repro.sim.cycle.CycleSimulator`; *backend* is
    ``"compiled"`` or ``"interp"``.  Raises :class:`ValueError` for an
    unknown backend name (the CLI maps that to exit code 2).
    """
    if backend == "compiled":
        from .compiled import compile_circuit

        circuit = compile_circuit(
            graph, env, kernel, capacities=capacities, latency_of=latency_of
        )
        return circuit.run(
            arrays,
            max_cycles=max_cycles,
            deadlock_window=deadlock_window,
            trace=trace,
        )
    if backend == "interp":
        simulator = CycleSimulator(
            graph,
            env,
            kernel,
            arrays,
            capacities=capacities,
            latency_of=latency_of,
            max_cycles=max_cycles,
            deadlock_window=deadlock_window,
            trace=trace,
        )
        return simulator.run()
    raise ValueError(
        f"unknown simulation backend {backend!r}; expected one of {BACKENDS}"
    )
