"""The evaluation harness: run a benchmark through all four flows.

The methodology mirrors section 6.1: the front end produces the untagged
DF-IO circuit; Graphiti's verified rewriting pipeline and the unverified
DF-OoO transform each derive an out-of-order version; buffer placement runs
on every circuit; the cycle simulator supplies cycle counts (ModelSim's
role); the technology model supplies clock period and LUT/FF/DSP (Vivado's
role); and the static scheduler plays Vericert.

Each dataflow simulation also checks functional correctness against the
sequential reference interpreter — including the order of memory writes,
which is what exposes the DF-OoO bicg bug.

:func:`evaluate_program` is the unit of work: one program through its
flows, with one compile and one reference run shared by all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ..components import default_environment
from ..core.environment import Environment
from ..core.exprhigh import ExprHigh
from ..hls.area import AreaReport, analyze, latency_of
from ..hls.buffers import place_buffers
from ..hls.frontend import CompiledKernel, CompiledProgram, compile_program
from ..hls.ir import ExecutionTrace, Program, run_program
from ..hls.ooo import transform_out_of_order
from ..hls.static_sched import schedule_program
from ..rewriting.pipeline import GraphitiPipeline, TransformResult
from ..sim.dispatch import simulate_graph
from .paper_data import DATAFLOW_FLOWS, FLOWS


def flow_graph(
    ck: CompiledKernel, flow: str, env: Environment
) -> tuple[ExprHigh, int | None, TransformResult | None]:
    """The circuit *flow* simulates for kernel *ck*: ``(graph, tags, outcome)``.

    *tags* is the tag budget buffer placement widens tagged channels for
    (``None`` for an in-order circuit).  *outcome* is the pipeline's
    :class:`TransformResult` for GRAPHITI and ``None`` otherwise; when the
    pipeline refuses, the graph is ``outcome.graph`` (the input circuit)
    and *tags* is ``None``.
    """
    if flow == "DF-IO":
        return ck.graph, None, None
    if flow == "DF-OoO":
        return transform_out_of_order(ck.graph, ck.mark), ck.mark.tags, None
    if flow == "GRAPHITI":
        outcome = GraphitiPipeline(env).transform_kernel(ck.graph, ck.mark)
        return outcome.graph, ck.mark.tags if outcome.transformed else None, outcome
    raise ValueError(f"unknown dataflow flow {flow!r}; expected one of {DATAFLOW_FLOWS}")


@dataclass
class FlowResult:
    """One flow's measurements on one benchmark."""

    flow: str
    cycles: int
    area: AreaReport
    correct: bool
    stores_in_order: bool
    refused_loops: int = 0
    rewrite_steps: int = 0

    @property
    def execution_time(self) -> float:
        return self.area.execution_time(self.cycles)

    # -- result protocol / wire format (repro.results) ------------------------

    def to_dict(self) -> dict:
        from ..results import SCHEMA_VERSION

        return {
            "kind": "FlowResult",
            "schema_version": SCHEMA_VERSION,
            "flow": self.flow,
            "cycles": int(self.cycles),
            "area": self.area.to_dict(),
            "correct": bool(self.correct),
            "stores_in_order": bool(self.stores_in_order),
            "refused_loops": int(self.refused_loops),
            "rewrite_steps": int(self.rewrite_steps),
        }

    @staticmethod
    def from_dict(data: dict) -> "FlowResult":
        from ..errors import ResultSchemaError
        from ..results import check_schema

        entry = check_schema(data, "FlowResult")
        try:
            return FlowResult(
                flow=entry["flow"],
                cycles=int(entry["cycles"]),
                area=AreaReport.from_dict(entry["area"]),
                correct=bool(entry["correct"]),
                stores_in_order=bool(entry["stores_in_order"]),
                refused_loops=int(entry["refused_loops"]),
                rewrite_steps=int(entry["rewrite_steps"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ResultSchemaError(f"malformed FlowResult wire dict: {exc}") from exc

    def summary(self) -> str:
        status = "ok" if self.correct else "WRONG RESULT"
        return (
            f"{self.flow}: {self.cycles} cycles @ {self.area.clock_period:.2f}ns"
            f" ({self.execution_time:.0f}ns), {self.area.luts} LUTs, {status}"
        )


@dataclass
class BenchmarkResult:
    name: str
    flows: dict[str, FlowResult] = field(default_factory=dict)

    def __getitem__(self, flow: str) -> FlowResult:
        return self.flows[flow]

    def to_dict(self) -> dict:
        from ..results import SCHEMA_VERSION

        return {
            "kind": "BenchmarkResult",
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "flows": {flow: result.to_dict() for flow, result in self.flows.items()},
        }

    @staticmethod
    def from_dict(data: dict) -> "BenchmarkResult":
        from ..errors import ResultSchemaError
        from ..results import check_schema

        entry = check_schema(data, "BenchmarkResult")
        try:
            result = BenchmarkResult(entry["name"])
            for flow, flow_entry in entry["flows"].items():
                result.flows[flow] = FlowResult.from_dict(flow_entry)
        except (KeyError, TypeError) as exc:
            raise ResultSchemaError(f"malformed BenchmarkResult wire dict: {exc}") from exc
        return result

    def summary(self) -> str:
        flows = ", ".join(
            f"{flow}={result.cycles}c" for flow, result in self.flows.items()
        )
        return f"{self.name}: {flows}"


def evaluate_program(
    program: Program,
    flows: Sequence[str] = FLOWS,
) -> tuple[BenchmarkResult, CompiledProgram]:
    """Evaluate *program* under each of *flows* — the executor's unit of work.

    One evaluation copies the program's arrays once, compiles that copy
    once and runs the sequential reference once; Vericert takes its trip
    counts from the same trace.  Before each dataflow flow the copy is
    restored to the pristine contents, so every flow starts from the same
    inputs and the caller's ``program.arrays`` are never written.

    A GRAPHITI circuit that equals the DF-IO circuit on every kernel and
    carries no tag budget (the pipeline refused every loop) is not
    simulated again: it takes DF-IO's cycles, area and correctness.

    Returns the result (named after the program) and the compiled program,
    whose kernel graphs no flow mutates.
    """
    unknown = [flow for flow in flows if flow not in FLOWS]
    if unknown:
        raise ValueError(f"unknown flow {unknown[0]!r}; expected one of {FLOWS}")
    working = _working_copy(program)
    env = default_environment()
    compiled = compile_program(working, env)
    reference = run_program(program)
    result = BenchmarkResult(program.name)
    for flow in flows:
        if flow == "Vericert":
            result.flows[flow] = _run_vericert(program, reference)
            continue
        circuits = [flow_graph(ck, flow, env) for ck in compiled.kernels]
        outcomes = [outcome for _, _, outcome in circuits if outcome is not None]
        measured = result.flows.get("DF-IO")
        if measured is None or not all(
            tags is None and graph == ck.graph
            for ck, (graph, tags, _) in zip(compiled.kernels, circuits)
        ):
            measured = _run_dataflow(
                flow, circuits, compiled, working, program.arrays, reference, env
            )
        result.flows[flow] = replace(
            measured,
            flow=flow,
            refused_loops=sum(not outcome.transformed for outcome in outcomes),
            rewrite_steps=sum(outcome.total_steps for outcome in outcomes),
        )
    return result, compiled


def _working_copy(program: Program) -> Program:
    """*program* over a private copy of its arrays, for compiling and
    simulating without writing the caller's."""
    return Program(program.name, program.copy_arrays(), program.kernels)


def _restore_arrays(program: Program, pristine: dict) -> None:
    # The compiled circuits' load operators close over program.arrays by
    # name, so restore contents in place rather than rebinding.
    for key, array in pristine.items():
        program.arrays[key][...] = array


def _run_dataflow(
    flow: str,
    circuits: list,
    compiled: CompiledProgram,
    program: Program,
    pristine: dict,
    reference: ExecutionTrace,
    env: Environment,
) -> FlowResult:
    """Simulate *circuits* (one ``flow_graph`` triple per kernel) in turn
    on *program*'s arrays, first restored to *pristine*."""
    _restore_arrays(program, pristine)

    total_cycles = 0
    area = AreaReport()
    history: list = []
    for ck, (graph, tags, _) in zip(compiled.kernels, circuits):
        placement = place_buffers(graph, tags)
        stats = simulate_graph(
            graph,
            env,
            ck.kernel,
            program.arrays,
            capacities=placement.capacities,
            latency_of=latency_of,
        )
        total_cycles += stats.cycles
        history.extend(stats.store_history)
        report = analyze(graph, extra_buffer_slots=placement.extra_slots)
        area.luts += report.luts
        area.ffs += report.ffs
        area.dsps += report.dsps
        area.clock_period = max(area.clock_period, report.clock_period)

    return FlowResult(
        flow=flow,
        cycles=total_cycles,
        area=area,
        correct=_arrays_match(program.arrays, reference.arrays),
        stores_in_order=_stores_in_order(history, reference.store_history),
    )


def _stores_in_order(actual: list, expected: list) -> bool:
    """Per-array, the sequence of (index, value) writes must match: the
    indices exactly, the values within ``atol=1e-6`` (one vectorised
    ``np.isclose`` per array).

    Writes to *different* arrays may legitimately interleave differently
    (the collector of instance *i* can overlap the loop of instance *i+1*),
    but reordering writes within one array is the observable symptom of the
    unsound out-of-order transformation.
    """
    def by_array(history: list) -> dict[str, tuple[list, list]]:
        grouped: dict[str, tuple[list, list]] = {}
        for array, index, value in history:
            indices, values = grouped.setdefault(array, ([], []))
            indices.append(index)
            values.append(value)
        return grouped

    actual_groups, expected_groups = by_array(actual), by_array(expected)
    if set(actual_groups) != set(expected_groups):
        return False
    for array, (indices, values) in expected_groups.items():
        got_indices, got_values = actual_groups[array]
        if got_indices != indices:
            return False
        got = np.array(got_values, dtype=float)
        if not np.isclose(got, np.array(values, dtype=float), atol=1e-6).all():
            return False
    return True


def _arrays_match(actual: dict, expected: dict) -> bool:
    for key, array in expected.items():
        candidate = actual.get(key)
        if candidate is None:
            return False
        if not np.allclose(np.asarray(candidate, dtype=float), np.asarray(array, dtype=float), atol=1e-6):
            return False
    return True


def simulate_flow(program: Program, flow: str, kernel_index: int = 0):
    """Simulate one kernel under one dataflow flow, recording a firing trace.

    Returns ``(stats, trace, graph)`` — the instrumentation used by the
    figure 2d/2e execution-trace views.  *flow* is one of
    :data:`DATAFLOW_FLOWS`.
    """
    from ..sim.trace import FiringTrace

    working = _working_copy(program)
    env = default_environment()
    compiled = compile_program(working, env)
    ck = compiled.kernels[kernel_index]
    graph, tags, _ = flow_graph(ck, flow, env)
    placement = place_buffers(graph, tags)
    trace = FiringTrace()
    stats = simulate_graph(
        graph,
        env,
        ck.kernel,
        working.arrays,
        capacities=placement.capacities,
        latency_of=latency_of,
        trace=trace,
    )
    return stats, trace, graph


def _run_vericert(program: Program, reference: ExecutionTrace) -> FlowResult:
    report = schedule_program(program, reference)
    return FlowResult(
        flow="Vericert",
        cycles=report.cycles,
        area=report.area,
        correct=True,  # the FSM interpreter is the sequential semantics
        stores_in_order=True,
    )
