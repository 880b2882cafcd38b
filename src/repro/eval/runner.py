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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..benchmarks import load_benchmark
from ..components import default_environment
from ..core.environment import Environment
from ..hls.area import AreaReport, analyze, latency_of
from ..hls.buffers import place_buffers
from ..hls.frontend import CompiledProgram, compile_program
from ..hls.ir import Program, run_program
from ..hls.ooo import transform_out_of_order
from ..hls.static_sched import schedule_program
from ..rewriting.pipeline import GraphitiPipeline
from ..sim.dispatch import simulate_graph

FLOWS = ("DF-IO", "DF-OoO", "GRAPHITI", "Vericert")

#: Flow name → transform argument of :func:`_run_dataflow`.
_DATAFLOW_TRANSFORMS = {"DF-IO": None, "DF-OoO": "ooo", "GRAPHITI": "graphiti"}


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


def run_flow(
    name: str,
    flow: str,
    program: Program | None = None,
    backend: str = "compiled",
) -> FlowResult:
    """Run *name* under a single flow — the executor's unit of work.

    Each flow compiles the program itself; compiling is deterministic, so
    the (benchmark × flow) matrix fans out as independent, picklable work
    units (see :meth:`repro.api.Session.bench`).
    """
    program = program if program is not None else load_benchmark(name)
    pristine = {key: array.copy() for key, array in program.arrays.items()}
    if flow == "Vericert":
        return _run_vericert(program, pristine)
    if flow not in _DATAFLOW_TRANSFORMS:
        raise ValueError(f"unknown flow {flow!r}; expected one of {FLOWS}")
    reference = run_program(program, {key: array.copy() for key, array in pristine.items()})
    env = default_environment()
    compiled = compile_program(program, env)
    return _run_dataflow(
        flow, compiled, program, pristine, reference, env,
        transform=_DATAFLOW_TRANSFORMS[flow],
        backend=backend,
    )


def _restore_arrays(program: Program, pristine: dict) -> None:
    # The compiled circuits' load operators close over program.arrays by
    # name, so restore contents in place rather than rebinding.
    for key, array in pristine.items():
        program.arrays[key][...] = array


def _run_dataflow(
    flow: str,
    compiled: CompiledProgram,
    program: Program,
    pristine: dict,
    reference,
    env: Environment,
    transform: str | None,
    backend: str = "compiled",
) -> FlowResult:
    _restore_arrays(program, pristine)

    graphs = []
    refused = 0
    rewrite_steps = 0
    for ck in compiled.kernels:
        if transform is None:
            graphs.append((ck, ck.graph, None))
        elif transform == "ooo":
            graphs.append((ck, transform_out_of_order(ck.graph, ck.mark), ck.mark.tags))
        else:
            pipeline = GraphitiPipeline(env)
            outcome = pipeline.transform_kernel(ck.graph, ck.mark)
            rewrite_steps += outcome.total_steps
            if outcome.transformed:
                graphs.append((ck, outcome.graph, ck.mark.tags))
            else:
                refused += 1
                graphs.append((ck, ck.graph, None))

    total_cycles = 0
    area = AreaReport()
    history: list = []
    for ck, graph, tags in graphs:
        placement = place_buffers(graph, tags)
        stats = simulate_graph(
            graph,
            env,
            ck.kernel,
            program.arrays,
            capacities=placement.capacities,
            latency_of=latency_of,
            backend=backend,
        )
        total_cycles += stats.cycles
        history.extend(stats.store_history)
        report = analyze(graph, extra_buffer_slots=placement.extra_slots)
        area.luts += report.luts
        area.ffs += report.ffs
        area.dsps += report.dsps
        area.clock_period = max(area.clock_period, report.clock_period)

    correct = _arrays_match(program.arrays, reference.arrays)
    stores_in_order = _stores_in_order(history, reference.store_history)
    return FlowResult(
        flow=flow,
        cycles=total_cycles,
        area=area,
        correct=correct,
        stores_in_order=stores_in_order,
        refused_loops=refused,
        rewrite_steps=rewrite_steps,
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


def simulate_flow(
    program: Program, flow: str, kernel_index: int = 0, backend: str = "compiled"
):
    """Simulate one kernel under one dataflow flow, recording a firing trace.

    Returns ``(stats, trace, graph)`` — the instrumentation used by the
    figure 2d/2e execution-trace views.  *flow* is one of ``"DF-IO"``,
    ``"DF-OoO"``, ``"GRAPHITI"``.
    """
    from ..sim.trace import FiringTrace

    pristine = {key: array.copy() for key, array in program.arrays.items()}
    env = default_environment()
    compiled = compile_program(program, env)
    ck = compiled.kernels[kernel_index]
    if flow == "DF-IO":
        graph, tags = ck.graph, None
    elif flow == "DF-OoO":
        graph, tags = transform_out_of_order(ck.graph, ck.mark), ck.mark.tags
    elif flow == "GRAPHITI":
        outcome = GraphitiPipeline(env).transform_kernel(ck.graph, ck.mark)
        if outcome.transformed:
            graph, tags = outcome.graph, ck.mark.tags
        else:
            graph, tags = ck.graph, None
    else:
        raise ValueError(f"unknown dataflow flow {flow!r}")
    _restore_arrays(program, pristine)
    placement = place_buffers(graph, tags)
    trace = FiringTrace()
    stats = simulate_graph(
        graph,
        env,
        ck.kernel,
        program.arrays,
        capacities=placement.capacities,
        latency_of=latency_of,
        backend=backend,
        trace=trace,
    )
    return stats, trace, graph


def _run_vericert(program: Program, pristine: dict) -> FlowResult:
    report = schedule_program(program, {key: array.copy() for key, array in pristine.items()})
    return FlowResult(
        flow="Vericert",
        cycles=report.cycles,
        area=report.area,
        correct=True,  # the FSM interpreter is the sequential semantics
        stores_in_order=True,
    )
