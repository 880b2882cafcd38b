"""The Vericert substitute: statically scheduled HLS into an FSM.

Vericert (the only other verified HLS tool, used as the paper's second
comparison point) produces a state machine: one operation chain per FSM
state sequence, with aggressive resource sharing and no loop pipelining.
This module reproduces that architecture's cost profile:

* list scheduling of the loop body DAG under shared functional units (one
  FP adder, one FP multiplier, one divider/modulo unit, one memory port);
* no overlap between loop iterations or outer-loop points: per-iteration
  cost is the schedule length plus FSM transition overhead;
* deeper-pipelined (higher latency) units than the dataflow flows, which is
  what buys Vericert its better clock period;
* area: one shared unit of each needed kind, registers per variable, and a
  small FSM — far below the dataflow circuits' handshake fabric (Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SchedulingError
from .area import AreaReport, OP_PROFILES, base_op
from .ir import BinOp, Const, ExecutionTrace, Expr, Load, Program, Select, UnOp, Var, run_program

#: Latency scale: Vericert's units are pipelined deeper to close at a lower
#: clock; combined with no loop pipelining this is the paper's cycle-count /
#: clock-period trade-off.
LATENCY_SCALE = 1.6

#: FSM overhead cycles per loop iteration (state entry/exit).
FSM_OVERHEAD = 2

#: Resource classes: op kind -> number of shared units.
RESOURCES = {
    "fadd": 1,  # shared FP add/sub
    "fmul": 1,  # shared FP multiplier
    "mod": 1,
    "mem": 1,  # single memory port
    "int": 2,  # two integer ALUs
}


def _resource_class(op: str) -> str:
    base = base_op(op)
    if base in ("fadd", "fsub"):
        return "fadd"
    if base == "fmul":
        return "fmul"
    if base == "mod":
        return "mod"
    if base in ("load", "store"):
        return "mem"
    return "int"


def _op_latency(op: str) -> int:
    profile = OP_PROFILES.get(base_op(op))
    latency = profile.latency if profile else 1
    return max(1, round(latency * LATENCY_SCALE))


@dataclass
class _SchedOp:
    name: str
    op: str
    deps: list[str]


def _flatten(expr: Expr, ops: list[_SchedOp], counter: list[int]) -> str | None:
    """Flatten an expression into scheduling ops; returns producing op name."""
    if isinstance(expr, (Var, Const)):
        return None  # available in a register, no scheduled op
    counter[0] += 1
    name = f"op{counter[0]}"
    if isinstance(expr, BinOp):
        deps = [d for d in (_flatten(expr.left, ops, counter), _flatten(expr.right, ops, counter)) if d]
        ops.append(_SchedOp(name, expr.op, deps))
        return name
    if isinstance(expr, UnOp):
        deps = [d for d in (_flatten(expr.operand, ops, counter),) if d]
        ops.append(_SchedOp(name, expr.op, deps))
        return name
    if isinstance(expr, Load):
        deps = [d for d in (_flatten(expr.index, ops, counter),) if d]
        ops.append(_SchedOp(name, "load", deps))
        return name
    if isinstance(expr, Select):
        deps = [
            d
            for d in (
                _flatten(expr.cond, ops, counter),
                _flatten(expr.if_true, ops, counter),
                _flatten(expr.if_false, ops, counter),
            )
            if d
        ]
        ops.append(_SchedOp(name, "select", deps))
        return name
    raise SchedulingError(f"cannot schedule expression {expr!r}")


def schedule_length(exprs: list[Expr], stores: int = 0) -> int:
    """List-schedule the expression set under shared resources.

    Returns the makespan in cycles.  *stores* adds memory-port writes at the
    end of the schedule.
    """
    ops: list[_SchedOp] = []
    counter = [0]
    for expr in exprs:
        _flatten(expr, ops, counter)
    for index in range(stores):
        ops.append(_SchedOp(f"store{index}", "store", []))

    finish: dict[str, int] = {}
    busy_until: dict[str, list[int]] = {
        kind: [0] * units for kind, units in RESOURCES.items()
    }
    # Ops are in dependency order (children flattened before parents).
    for op in ops:
        ready = max((finish[d] for d in op.deps), default=0)
        kind = _resource_class(op.op)
        units = busy_until[kind]
        unit = min(range(len(units)), key=lambda i: units[i])
        start = max(ready, units[unit])
        end = start + _op_latency(op.op)
        units[unit] = end
        finish[op.name] = end
    return max(finish.values(), default=0)


@dataclass
class StaticScheduleReport:
    """Cycle count and area for the statically scheduled implementation."""

    cycles: int
    area: AreaReport
    per_iteration: int
    iterations: int


def schedule_program(
    program: Program, trace: ExecutionTrace | None = None
) -> StaticScheduleReport:
    """Schedule and 'run' the program on the FSM architecture.

    Trip counts come from *trace*, the reference interpreter's run of
    *program* (default: a fresh :func:`run_program` on a copy of its
    arrays), so a loop bound that reads an earlier kernel's or an earlier
    instance's store sees that store.
    """
    if trace is None:
        trace = run_program(program)
    total_cycles = 0
    total_iterations = 0
    worst_iteration = 0
    ops_used: set[str] = set()

    for kernel, trip_counts in zip(program.kernels, trace.trip_counts):
        body_exprs = list(kernel.loop.body.values()) + [kernel.loop.condition]
        for op in kernel.loop.stores:
            body_exprs.extend([op.index, op.value])
        iteration_cycles = schedule_length(body_exprs, stores=len(kernel.loop.stores)) + FSM_OVERHEAD
        worst_iteration = max(worst_iteration, iteration_cycles)

        init_cycles = schedule_length(list(kernel.init.values())) + FSM_OVERHEAD
        epilogue_cycles = (
            schedule_length([s.index for s in kernel.epilogue] + [s.value for s in kernel.epilogue],
                            stores=len(kernel.epilogue))
            + FSM_OVERHEAD
            if kernel.epilogue
            else 0
        )

        for trips in trip_counts:
            total_cycles += init_cycles + trips * iteration_cycles + epilogue_cycles
            total_iterations += trips

        _collect_ops(body_exprs + list(kernel.init.values()), ops_used)
        if kernel.loop.stores or kernel.epilogue:
            ops_used.add("store")

    area = _static_area(ops_used, program)
    return StaticScheduleReport(
        cycles=total_cycles,
        area=area,
        per_iteration=worst_iteration,
        iterations=total_iterations,
    )


def _collect_ops(exprs: list[Expr], into: set[str]) -> None:
    for expr in exprs:
        if isinstance(expr, BinOp):
            into.add(expr.op)
            _collect_ops([expr.left, expr.right], into)
        elif isinstance(expr, UnOp):
            into.add(expr.op)
            _collect_ops([expr.operand], into)
        elif isinstance(expr, Load):
            into.add("load")
            _collect_ops([expr.index], into)
        elif isinstance(expr, Select):
            into.add("select")
            _collect_ops([expr.cond, expr.if_true, expr.if_false], into)


def _static_area(ops_used: set[str], program: Program) -> AreaReport:
    """One shared unit per op class, registers, and a small FSM."""
    report = AreaReport()
    classes: dict[str, float] = {}
    for op in ops_used:
        kind = _resource_class(op)
        profile = OP_PROFILES.get(base_op(op))
        if profile is None:
            continue
        if kind not in classes or profile.delay > classes[kind]:
            classes[kind] = profile.delay
            # one shared unit of the worst op in this class
        report.luts += profile.luts // 2 if kind == "int" else 0
    # Shared units (counted once per class present).
    shared = {
        "fadd": (300, 420, 0),
        "fmul": (120, 200, 5),
        "mod": (200, 240, 0),
        "mem": (80, 90, 0),
        "int": (90, 100, 0),
    }
    for kind in classes:
        luts, ffs, dsps = shared[kind]
        report.luts += luts
        report.ffs += ffs
        report.dsps += dsps
    # Registers per kernel state variable plus FSM encoding.
    state_regs = sum(len(k.loop.state) for k in program.kernels)
    report.luts += 60 + 18 * state_regs
    report.ffs += 120 + 40 * state_regs
    # Clock: deeper pipelines close below the dataflow fabric's period.
    worst_delay = max(classes.values(), default=3.0)
    report.clock_period = round(0.75 * worst_delay + 0.25 + 0.0002 * report.luts, 3)
    return report
