"""The dynamic-HLS front end: mini-IR kernels → elastic dataflow circuits.

This is the stand-in for Dynamatic's fast-token-delivery flow (DF-IO in the
paper's evaluation).  Each kernel's inner do-while loop compiles to the
classic circuit of figure 2b:

* one Mux per loop-carried variable, guarded by a shared Init'd condition
  distributed through a binary fork tree;
* the body expression DAG as Operator nodes (loads are pure array-read
  operators; constants are folded into partially-applied operators so no
  separate constant-trigger network is needed);
* one Branch per variable steering loop-back vs exit;
* a Driver pseudo-component emitting one initial-state token per outer
  iteration, and a Collector consuming exit values and running the
  epilogue stores.

Stores *inside* the body become Store components — the effectful case the
rewrite pipeline must refuse to make out-of-order.

The returned :class:`LoopMark` per kernel is the oracle information the
paper takes from Elakhras et al.: which nodes form the loop that should be
made out-of-order, and with how many tags.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..components import branch, fork, init, mux, operator, sink, store
from ..core.environment import Environment
from ..core.exprhigh import Endpoint, ExprHigh, NodeSpec
from ..errors import FrontendError
from .ir import (
    BinOp,
    Const,
    Expr,
    Kernel,
    Load,
    Program,
    Select,
    UnOp,
    Var,
    var_occurrences,
)
from .marks import LoopMark


@dataclass
class CompiledKernel:
    graph: ExprHigh
    mark: LoopMark
    kernel: Kernel


@dataclass
class CompiledProgram:
    name: str
    kernels: list[CompiledKernel] = field(default_factory=list)

    def total_nodes(self) -> int:
        return sum(len(ck.graph.nodes) for ck in self.kernels)


def compile_program(program: Program, env: Environment) -> CompiledProgram:
    """Compile every kernel of *program*, registering functions in *env*."""
    compiled = CompiledProgram(program.name)
    for kernel in program.kernels:
        compiled.kernels.append(compile_kernel(kernel, program, env))
    return compiled


def compile_kernel(kernel: Kernel, program: Program, env: Environment) -> CompiledKernel:
    builder = _KernelBuilder(kernel, program, env)
    return builder.build()


class _KernelBuilder:
    def __init__(self, kernel: Kernel, program: Program, env: Environment):
        self.kernel = kernel
        self.program = program
        self.env = env
        self.graph = ExprHigh()
        self.counter = 0

    # -- naming ----------------------------------------------------------------

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    # -- main ------------------------------------------------------------------

    def build(self) -> CompiledKernel:
        kernel, graph = self.kernel, self.graph
        loop = kernel.loop
        state = loop.state

        driver_name = f"driver_{kernel.name}"
        graph.add_node(
            driver_name,
            NodeSpec.make(
                "Driver",
                [],
                [f"out{i}" for i in range(len(state))],
                {"kernel": kernel.name},
            ),
        )

        mux_names: dict[str, str] = {}
        for index, var in enumerate(state):
            name = f"mux_{var}"
            graph.add_node(name, mux())
            graph.connect(driver_name, f"out{index}", name, "in1")
            mux_names[var] = name

        # Old-state wires, forked per number of *occurrences* in the body
        # (each occurrence of a variable consumes one forked wire).  A body
        # expression that folds to a constant still needs one token per
        # iteration; it is compiled as a constant-producing operator
        # triggered by that variable's own old token.
        folded_body = {var: _fold_constants(loop.body[var]) for var in state}
        uses: dict[str, int] = {var: 0 for var in state}
        for var, expr in folded_body.items():
            if isinstance(expr, Const):
                uses[var] += 1
                continue
            for used, count in var_occurrences(expr).items():
                uses[used] += count
        old_wires: dict[str, list[Endpoint]] = {}
        for var in state:
            source = Endpoint(mux_names[var], "out0")
            count = uses[var]
            if count == 0:
                sink_name = self.fresh("sink_unused_")
                graph.add_node(sink_name, sink())
                graph.connect(source.node, source.port, sink_name, "in0")
                old_wires[var] = []
            else:
                old_wires[var] = self._fan_out(source, count)

        # Body: one expression DAG per state variable (parallel update).
        cursor = {var: 0 for var in state}

        def take(var: str) -> Endpoint:
            wires = old_wires[var]
            endpoint = wires[cursor[var]]
            cursor[var] += 1
            return endpoint

        new_value: dict[str, Endpoint] = {}
        for var in state:
            expr = folded_body[var]
            if isinstance(expr, Const):
                trigger = take(var)
                fn_name = f"konst.{_value_token(expr.value)}"
                self.env.register_function(fn_name, lambda _t, _v=expr.value: _v, 1)
                name = self.fresh("const_")
                graph.add_node(name, operator(fn_name, 1))
                graph.connect(trigger.node, trigger.port, name, "in0")
                new_value[var] = Endpoint(name, "out0")
            else:
                new_value[var] = self._compile_expr(expr, take)

        # New-state wires: used by condition, branch data, and body stores.
        new_uses: dict[str, int] = {var: 1 for var in state}  # branch data
        for var, count in var_occurrences(_fold_constants(loop.condition)).items():
            new_uses[var] += count
        for op in loop.stores:
            for var, count in var_occurrences(_fold_constants(op.index)).items():
                new_uses[var] += count
            for var, count in var_occurrences(_fold_constants(op.value)).items():
                new_uses[var] += count
        new_wires: dict[str, list[Endpoint]] = {}
        for var in state:
            new_wires[var] = self._fan_out(new_value[var], new_uses[var])
        new_cursor = {var: 0 for var in state}

        def take_new(var: str) -> Endpoint:
            endpoint = new_wires[var][new_cursor[var]]
            new_cursor[var] += 1
            return endpoint

        cond_wire = self._compile_expr(loop.condition, take_new)

        # Body stores (the effectful case).
        for op in loop.stores:
            addr = self._compile_expr(op.index, take_new)
            data = self._compile_expr(op.value, take_new)
            store_name = self.fresh("store_")
            graph.add_node(store_name, store())
            graph.connect(addr.node, addr.port, store_name, "addr")
            graph.connect(data.node, data.port, store_name, "data")
            done_sink = self.fresh("sink_done_")
            graph.add_node(done_sink, sink())
            graph.connect(store_name, "done", done_sink, "in0")

        # Condition distribution: fork to (branch tree, init), init to muxes.
        cond_fork = f"condfork_{kernel.name}"
        graph.add_node(cond_fork, fork(2))
        graph.connect(cond_wire.node, cond_wire.port, cond_fork, "in0")

        init_name = f"init_{kernel.name}"
        graph.add_node(init_name, init(value=False))
        graph.connect(cond_fork, "out1", init_name, "in0")
        mux_cond_wires = self._fan_out(Endpoint(init_name, "out0"), len(state))
        for var, wire in zip(state, mux_cond_wires):
            graph.connect(wire.node, wire.port, mux_names[var], "cond")

        branch_cond_wires = self._fan_out(Endpoint(cond_fork, "out0"), len(state))

        collector_name = f"collector_{kernel.name}"
        graph.add_node(
            collector_name,
            NodeSpec.make(
                "Collector",
                [f"in{i}" for i in range(len(kernel.loop.result_vars))],
                [],
                {"kernel": kernel.name},
            ),
        )

        branch_names: dict[str, str] = {}
        for var, cond_ep in zip(state, branch_cond_wires):
            name = f"branch_{var}"
            graph.add_node(name, branch())
            branch_names[var] = name
            graph.connect(cond_ep.node, cond_ep.port, name, "cond")
            data = take_new(var)
            graph.connect(data.node, data.port, name, "in0")
            graph.connect(name, "out0", mux_names[var], "in0")  # loop back
            if var in loop.result_vars:
                slot = loop.result_vars.index(var)
                graph.connect(name, "out1", collector_name, f"in{slot}")
            else:
                exit_sink = self.fresh("sink_exit_")
                graph.add_node(exit_sink, sink())
                graph.connect(name, "out1", exit_sink, "in0")

        graph.validate()
        mark = LoopMark(
            kernel=kernel.name,
            mux_nodes=[mux_names[v] for v in state],
            branch_nodes=[branch_names[v] for v in state],
            init_node=init_name,
            cond_fork=cond_fork,
            driver=driver_name,
            collector=collector_name,
            tags=kernel.tags,
            effectful=loop.is_effectful(),
            sequential_outer=kernel.sequential_outer,
        )
        return CompiledKernel(graph=graph, mark=mark, kernel=self.kernel)

    # -- fan-out ----------------------------------------------------------------

    def _fan_out(self, source: Endpoint, count: int) -> list[Endpoint]:
        """Return *count* endpoints carrying the value at *source*.

        Builds a left-leaning comb of binary Forks, the shape the phase-1
        combine rewrites expect.
        """
        if count <= 0:
            raise FrontendError("fan_out of zero uses should be handled by the caller")
        if count == 1:
            return [source]
        name = self.fresh("fork_")
        self.graph.add_node(name, fork(2))
        self.graph.connect(source.node, source.port, name, "in0")
        rest = self._fan_out(Endpoint(name, "out0"), count - 1)
        return rest + [Endpoint(name, "out1")]

    # -- expressions --------------------------------------------------------------

    def _compile_expr(self, expr: Expr, take) -> Endpoint:
        """Compile an expression tree; *take* supplies variable wires."""
        expr = _fold_constants(expr)
        return self._emit(expr, take)

    def _emit(self, expr: Expr, take) -> Endpoint:
        graph = self.graph
        if isinstance(expr, Var):
            return take(expr.name)
        if isinstance(expr, Const):
            raise FrontendError(
                f"free-standing constant {expr.value!r}: constants must appear "
                "as operator operands (they are folded into the operator)"
            )
        if isinstance(expr, Load):
            fn_name = self._array_reader(expr.array)
            index = self._emit(expr.index, take)
            name = self.fresh("load_")
            graph.add_node(name, operator(fn_name, 1, memop="load", array=expr.array))
            graph.connect(index.node, index.port, name, "in0")
            return Endpoint(name, "out0")
        if isinstance(expr, UnOp):
            inner = self._emit(expr.operand, take)
            name = self.fresh("op_")
            graph.add_node(name, operator(self._ensure_op(expr.op), 1))
            graph.connect(inner.node, inner.port, name, "in0")
            return Endpoint(name, "out0")
        if isinstance(expr, BinOp):
            return self._emit_binop(expr, take)
        if isinstance(expr, Select):
            return self._emit_select(expr, take)
        raise FrontendError(f"cannot compile expression {expr!r}")

    def _emit_select(self, expr: Select, take) -> Endpoint:
        """If-converted conditional; constant arms fold into the selector,
        the same treatment constants get as operator operands."""
        graph = self.graph
        true_const = isinstance(expr.if_true, Const)
        false_const = isinstance(expr.if_false, Const)
        cond = self._emit(expr.cond, take)
        name = self.fresh("select_")
        if true_const and false_const:
            a, b = expr.if_true.value, expr.if_false.value
            fn_name = f"select.k12.{_value_token(a)}.{_value_token(b)}"
            self.env.register_function(fn_name, lambda c, _a=a, _b=b: _a if c else _b, 1)
            graph.add_node(name, operator(fn_name, 1, base_op="select"))
            graph.connect(cond.node, cond.port, name, "in0")
            return Endpoint(name, "out0")
        if false_const:
            value = expr.if_false.value
            fn_name = f"select.k2.{_value_token(value)}"
            self.env.register_function(fn_name, lambda c, t, _v=value: t if c else _v, 2)
            arm = self._emit(expr.if_true, take)
        elif true_const:
            value = expr.if_true.value
            fn_name = f"select.k1.{_value_token(value)}"
            self.env.register_function(fn_name, lambda c, f, _v=value: _v if c else f, 2)
            arm = self._emit(expr.if_false, take)
        else:
            if_true = self._emit(expr.if_true, take)
            if_false = self._emit(expr.if_false, take)
            graph.add_node(name, operator(self._ensure_select(), 3))
            graph.connect(cond.node, cond.port, name, "in0")
            graph.connect(if_true.node, if_true.port, name, "in1")
            graph.connect(if_false.node, if_false.port, name, "in2")
            return Endpoint(name, "out0")
        graph.add_node(name, operator(fn_name, 2, base_op="select"))
        graph.connect(cond.node, cond.port, name, "in0")
        graph.connect(arm.node, arm.port, name, "in1")
        return Endpoint(name, "out0")

    def _emit_binop(self, expr: BinOp, take) -> Endpoint:
        graph = self.graph
        if isinstance(expr.right, Const):
            fn_name = self._partial_op(expr.op, expr.right.value, position=1)
            left = self._emit(expr.left, take)
            name = self.fresh("op_")
            graph.add_node(name, operator(fn_name, 1, base_op=expr.op))
            graph.connect(left.node, left.port, name, "in0")
            return Endpoint(name, "out0")
        if isinstance(expr.left, Const):
            fn_name = self._partial_op(expr.op, expr.left.value, position=0)
            right = self._emit(expr.right, take)
            name = self.fresh("op_")
            graph.add_node(name, operator(fn_name, 1, base_op=expr.op))
            graph.connect(right.node, right.port, name, "in0")
            return Endpoint(name, "out0")
        left = self._emit(expr.left, take)
        right = self._emit(expr.right, take)
        name = self.fresh("op_")
        graph.add_node(name, operator(self._ensure_op(expr.op), 2))
        graph.connect(left.node, left.port, name, "in0")
        graph.connect(right.node, right.port, name, "in1")
        return Endpoint(name, "out0")

    # -- function registration -----------------------------------------------------

    def _ensure_op(self, op: str) -> str:
        from .ir import _BINOPS, _UNOPS  # registered op tables

        if op in _BINOPS:
            self.env.register_function(op, _BINOPS[op], 2)
            return op
        if op in _UNOPS:
            self.env.register_function(op, _UNOPS[op], 1)
            return op
        raise FrontendError(f"unknown operator {op!r}")

    def _ensure_select(self) -> str:
        self.env.register_function("select", lambda c, a, b: a if c else b, 3)
        return "select"

    def _partial_op(self, op: str, value, position: int) -> str:
        from .ir import _BINOPS

        base = _BINOPS.get(op)
        if base is None:
            raise FrontendError(f"unknown operator {op!r}")
        text = _value_token(value)
        name = f"{op}.k{position}.{text}"
        if position == 1:
            self.env.register_function(name, lambda a, _f=base, _v=value: _f(a, _v), 1)
        else:
            self.env.register_function(name, lambda b, _f=base, _v=value: _f(value, b), 1)
        return name

    def _array_reader(self, array: str) -> str:
        name = f"read.{array}"
        arrays = self.program.arrays

        def read(index, _arrays=arrays, _array=array):
            return _arrays[_array].flat[int(index)]

        self.env.register_function(name, read, 1)
        return name


def _value_token(value) -> str:
    text = repr(value)
    for ch in "{};= ,()<>*":
        text = text.replace(ch, "_")
    return text


def _fold_constants(expr: Expr) -> Expr:
    """Fold constant subtrees so only leaf constants remain as operands."""
    from .ir import eval_expr

    if isinstance(expr, (Var, Const)):
        return expr
    if isinstance(expr, UnOp):
        inner = _fold_constants(expr.operand)
        if isinstance(inner, Const):
            return Const(eval_expr(UnOp(expr.op, inner), {}, {}))
        return UnOp(expr.op, inner)
    if isinstance(expr, BinOp):
        left, right = _fold_constants(expr.left), _fold_constants(expr.right)
        if isinstance(left, Const) and isinstance(right, Const):
            return Const(eval_expr(BinOp(expr.op, left, right), {}, {}))
        return BinOp(expr.op, left, right)
    if isinstance(expr, Load):
        return Load(expr.array, _fold_constants(expr.index))
    if isinstance(expr, Select):
        cond = _fold_constants(expr.cond)
        if_true = _fold_constants(expr.if_true)
        if_false = _fold_constants(expr.if_false)
        if isinstance(cond, Const):
            return if_true if cond.value else if_false
        return Select(cond, if_true, if_false)
    raise FrontendError(f"cannot fold expression {expr!r}")
