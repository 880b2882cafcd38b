"""The mini imperative IR consumed by the HLS front ends.

The IR models exactly the program class the paper's benchmarks live in: a
kernel is an *inner do-while loop* (the unit the out-of-order transform
targets) driven by an affine outer iteration space.  All values used inside
the loop body are loop-carried state variables — outer-loop values a body
needs (row indices, bounds) are carried as constant state, which is also
what lets independent loop instances overlap once the loop runs out of
order.

Conditionals inside bodies are if-converted to :class:`Select` expressions
(both sides computed, one chosen), as dynamic HLS front ends do for small
branches; memory reads are pure array loads; memory *writes* inside a body
(:attr:`DoWhile.stores`) are the effectful case that makes a loop
non-transformable — the bicg situation of section 6.2.

:func:`run_program` is the reference interpreter: the sequential-C ground
truth that circuit simulations are checked against.  It compiles each
kernel once per call and then runs it: every expression becomes a closure
over a tuple of values (:func:`compile_expr`), with each variable resolved
to its slot in that tuple.  Init expressions see the outer variables; body,
condition and in-body store expressions see the state variables; epilogue
stores see the outer variables and the loop's exit values under the result
variable names, an exit value shadowing an outer variable of the same name
(as the simulators' Collectors bind them).  :func:`eval_expr` is the
recursive tree walk over a name → value mapping, used where an expression
is evaluated once (the simulators' Driver and Collector, constant folding);
the two agree on every value and every error.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Mapping

import numpy as np

from ..errors import FrontendError

# -- expressions --------------------------------------------------------------


class Expr:
    """Base class for IR expressions (immutable)."""

    def variables(self) -> frozenset[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def variables(self) -> frozenset[str]:
        return frozenset({self.name})


@dataclass(frozen=True)
class Const(Expr):
    value: object

    def variables(self) -> frozenset[str]:
        return frozenset()


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # add, sub, mul, fadd, fsub, fmul, mod, lt, le, ne, eq, and, or
    left: Expr
    right: Expr

    def variables(self) -> frozenset[str]:
        return self.left.variables() | self.right.variables()


@dataclass(frozen=True)
class UnOp(Expr):
    op: str  # ne0, eq0, not
    operand: Expr

    def variables(self) -> frozenset[str]:
        return self.operand.variables()


@dataclass(frozen=True)
class Load(Expr):
    """A pure array read; *index* must evaluate to a flat integer index."""

    array: str
    index: Expr

    def variables(self) -> frozenset[str]:
        return self.index.variables()


@dataclass(frozen=True)
class Select(Expr):
    """If-converted conditional: both sides evaluated, one selected."""

    cond: Expr
    if_true: Expr
    if_false: Expr

    def variables(self) -> frozenset[str]:
        return self.cond.variables() | self.if_true.variables() | self.if_false.variables()


_BINOPS: dict[str, Callable] = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "fadd": operator.add,
    "fsub": operator.sub,
    "fmul": operator.mul,
    "mod": lambda a, b: a % b if b else 0,
    "lt": operator.lt,
    "le": operator.le,
    "ne": operator.ne,
    "eq": operator.eq,
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
}

_UNOPS: dict[str, Callable] = {
    "ne0": lambda a: a != 0,
    "eq0": lambda a: a == 0,
    "not": lambda a: not a,
}


def eval_expr(expr: Expr, env: Mapping[str, object], arrays: Mapping[str, np.ndarray]) -> object:
    """Evaluate *expr* under variable bindings *env* and memory *arrays*."""
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise FrontendError(f"unbound variable {expr.name!r}") from None
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, BinOp):
        fn = _BINOPS.get(expr.op)
        if fn is None:
            raise FrontendError(f"unknown binary op {expr.op!r}")
        return fn(eval_expr(expr.left, env, arrays), eval_expr(expr.right, env, arrays))
    if isinstance(expr, UnOp):
        fn = _UNOPS.get(expr.op)
        if fn is None:
            raise FrontendError(f"unknown unary op {expr.op!r}")
        return fn(eval_expr(expr.operand, env, arrays))
    if isinstance(expr, Load):
        index = int(eval_expr(expr.index, env, arrays))
        try:
            return arrays[expr.array].flat[index]
        except (KeyError, IndexError) as exc:
            raise FrontendError(f"bad load {expr.array}[{index}]") from exc
    if isinstance(expr, Select):
        if eval_expr(expr.cond, env, arrays):
            return eval_expr(expr.if_true, env, arrays)
        return eval_expr(expr.if_false, env, arrays)
    raise FrontendError(f"cannot evaluate expression {expr!r}")


def var_occurrences(expr: Expr, counts: dict[str, int] | None = None) -> dict[str, int]:
    """Count variable *occurrences* (with multiplicity) in an expression.

    Distinct from :meth:`Expr.variables`, which returns the set: circuit
    generation forks one wire per occurrence, so repeated subexpressions
    need every occurrence accounted for.
    """
    counts = {} if counts is None else counts
    if isinstance(expr, Var):
        counts[expr.name] = counts.get(expr.name, 0) + 1
    elif isinstance(expr, BinOp):
        var_occurrences(expr.left, counts)
        var_occurrences(expr.right, counts)
    elif isinstance(expr, UnOp):
        var_occurrences(expr.operand, counts)
    elif isinstance(expr, Load):
        var_occurrences(expr.index, counts)
    elif isinstance(expr, Select):
        var_occurrences(expr.cond, counts)
        var_occurrences(expr.if_true, counts)
        var_occurrences(expr.if_false, counts)
    return counts


# -- statements / structure -----------------------------------------------------


@dataclass(frozen=True)
class StoreOp:
    """A memory write: ``array[index] = value``."""

    array: str
    index: Expr
    value: Expr


@dataclass(frozen=True)
class DoWhile:
    """The inner do-while loop.

    * ``state``: loop-carried variable names; the loop's value type T is the
      tuple of these, in order.
    * ``body``: the new value of each state variable, evaluated on the *old*
      state (a parallel update).
    * ``condition``: continue-iterating predicate over the *new* state.
    * ``stores``: memory writes performed each iteration, evaluated on the
      new state — a non-empty list makes the loop body effectful and blocks
      the out-of-order transform (section 6.2's bicg).
    * ``result_vars``: state variables exported when the loop exits.
    """

    name: str
    state: tuple[str, ...]
    body: Mapping[str, Expr]
    condition: Expr
    result_vars: tuple[str, ...]
    stores: tuple[StoreOp, ...] = ()

    def __post_init__(self) -> None:
        missing = [v for v in self.state if v not in self.body]
        if missing:
            raise FrontendError(f"loop {self.name!r}: state vars {missing} have no body update")
        used = frozenset().union(*(e.variables() for e in self.body.values()))
        unknown = used - set(self.state)
        if unknown:
            raise FrontendError(
                f"loop {self.name!r}: body reads non-state variables {sorted(unknown)}; "
                "carry them as constant state instead"
            )
        bad = [v for v in self.result_vars if v not in self.state]
        if bad:
            raise FrontendError(f"loop {self.name!r}: result vars {bad} are not state vars")

    def is_effectful(self) -> bool:
        return bool(self.stores)


@dataclass(frozen=True)
class OuterLoop:
    """One affine outer dimension: ``for var in range(start, end)``."""

    var: str
    count: int


@dataclass(frozen=True)
class Kernel:
    """An inner loop driven by an outer iteration space.

    * ``outer``: iteration dimensions, outermost first.
    * ``init``: initial state per outer point, over the outer variables.
    * ``epilogue``: stores performed per outer point from the loop's exit
      values (bound under the result variable names, which shadow outer
      variables of the same name).
    * ``tags``: the tag count the out-of-order transform uses for this loop
      (the per-benchmark numbers of Elakhras et al.).
    * ``sequential_outer``: when True the outer iterations are dependent
      (the next initial state reads values the previous iteration stored),
      so instances must be issued one at a time even when tagged — the
      gsum-single situation.
    """

    name: str
    loop: DoWhile
    outer: tuple[OuterLoop, ...]
    init: Mapping[str, Expr]
    epilogue: tuple[StoreOp, ...] = ()
    tags: int = 4
    sequential_outer: bool = False

    def __post_init__(self) -> None:
        missing = [v for v in self.loop.state if v not in self.init]
        if missing:
            raise FrontendError(f"kernel {self.name!r}: no init for state vars {missing}")

    def outer_points(self):
        """Iterate over the outer index environments, row-major."""
        names = [dim.var for dim in self.outer]
        for values in product(*(range(dim.count) for dim in self.outer)):
            yield dict(zip(names, values))

@dataclass
class Program:
    """A benchmark: named arrays plus a list of kernels run in sequence."""

    name: str
    arrays: dict[str, np.ndarray]
    kernels: list[Kernel] = field(default_factory=list)

    def copy_arrays(self) -> dict[str, np.ndarray]:
        return {name: array.copy() for name, array in self.arrays.items()}


@dataclass
class ExecutionTrace:
    """Reference execution results: final memory, per-store history and
    the iteration count of every loop instance.

    ``trip_counts[k][p]`` is the number of inner iterations kernel *k* ran
    at its outer point *p* (in :meth:`Kernel.outer_points` order), with the
    memory that instance saw: earlier kernels' writes and earlier
    instances' epilogue stores applied.
    """

    arrays: dict[str, np.ndarray]
    store_history: list[tuple[str, int, object]]
    trip_counts: list[list[int]]

    @property
    def inner_iterations(self) -> int:
        return sum(sum(counts) for counts in self.trip_counts)




# -- the reference interpreter ---------------------------------------------------

#: A compiled expression: a closure over a tuple of values, laid out by the
#: scope it was compiled against.
Compiled = Callable[[tuple], object]


def _fail(message: str) -> Compiled:
    """A compiled expression that raises ``FrontendError(message)`` when run."""

    def fail(values):
        raise FrontendError(message)

    return fail


def compile_expr(expr: Expr, scope: Mapping[str, int], flats: Mapping[str, object]) -> Compiled:
    """Compile *expr* to a closure over a tuple of values.

    *scope* maps each visible variable to its slot in the tuple and *flats*
    each array name to the array's ``.flat``.  The closure returns what
    :func:`eval_expr` returns under the same bindings and raises what it
    raises.  Errors surface when the closure runs, not here: an unbound
    variable, an unknown op or a bad load fails only when evaluation
    reaches it, so an unknown op in a ``Select`` branch not taken never
    raises.
    """
    if isinstance(expr, Var):
        slot = scope.get(expr.name)
        if slot is None:
            return _fail(f"unbound variable {expr.name!r}")
        return operator.itemgetter(slot)
    if isinstance(expr, Const):
        value = expr.value
        return lambda values: value
    if isinstance(expr, BinOp):
        fn = _BINOPS.get(expr.op)
        if fn is None:
            return _fail(f"unknown binary op {expr.op!r}")
        left = compile_expr(expr.left, scope, flats)
        right = compile_expr(expr.right, scope, flats)
        return lambda values: fn(left(values), right(values))
    if isinstance(expr, UnOp):
        fn = _UNOPS.get(expr.op)
        if fn is None:
            return _fail(f"unknown unary op {expr.op!r}")
        operand = compile_expr(expr.operand, scope, flats)
        return lambda values: fn(operand(values))
    if isinstance(expr, Load):
        return _compile_load(expr.array, compile_expr(expr.index, scope, flats), flats.get(expr.array))
    if isinstance(expr, Select):
        cond = compile_expr(expr.cond, scope, flats)
        if_true = compile_expr(expr.if_true, scope, flats)
        if_false = compile_expr(expr.if_false, scope, flats)
        return lambda values: if_true(values) if cond(values) else if_false(values)
    return _fail(f"cannot evaluate expression {expr!r}")


def _compile_load(array: str, index_of: Compiled, flat) -> Compiled:
    if flat is None:

        def load(values):
            raise FrontendError(f"bad load {array}[{int(index_of(values))}]")

        return load

    def load(values):
        index = int(index_of(values))
        try:
            return flat[index]
        except IndexError as exc:
            raise FrontendError(f"bad load {array}[{index}]") from exc

    return load


def _compile_store(
    store: StoreOp, scope: Mapping[str, int], flats: Mapping[str, object], history: list
) -> Callable[[tuple], None]:
    """A closure performing *store* and appending it to *history*.

    An unknown array raises ``KeyError`` after the index and value are
    evaluated, as the assignment ``arrays[name].flat[index] = value`` does.
    """
    array = store.array
    index_of = compile_expr(store.index, scope, flats)
    value_of = compile_expr(store.value, scope, flats)
    flat = flats.get(array)
    record = history.append

    def write(values) -> None:
        index = int(index_of(values))
        value = value_of(values)
        if flat is None:
            raise KeyError(array)
        record((array, index, value))
        flat[index] = value

    return write


def run_program(program: Program, arrays: dict[str, np.ndarray] | None = None) -> ExecutionTrace:
    """Execute *program* sequentially — the C semantics ground truth.

    Runs on *arrays* in place (default: a copy of the program's).  Each
    kernel is compiled once per call (:func:`compile_expr`) and then run.
    """
    memory = arrays if arrays is not None else program.copy_arrays()
    flats = {name: array.flat for name, array in memory.items()}
    history: list[tuple[str, int, object]] = []
    trip_counts = [_run_kernel(kernel, flats, history) for kernel in program.kernels]
    return ExecutionTrace(arrays=memory, store_history=history, trip_counts=trip_counts)


def _run_kernel(kernel: Kernel, flats: Mapping[str, object], history: list) -> list[int]:
    """Run every outer point of *kernel*; return its trip counts."""
    loop = kernel.loop
    # An outer point is one value per dimension (``itertools.product``
    # enumerates them in :meth:`Kernel.outer_points` order); the innermost
    # dimension of a repeated name wins, as it does there.
    outer_scope = {dim.var: slot for slot, dim in enumerate(kernel.outer)}
    state_scope = {var: slot for slot, var in enumerate(loop.state)}
    # The epilogue sees the outer point followed by the exit values, and an
    # exit value shadows an outer variable of the same name.
    result_scope = dict(outer_scope)
    result_scope.update((var, len(kernel.outer) + n) for n, var in enumerate(loop.result_vars))
    result_slots = [state_scope[var] for var in loop.result_vars]

    inits = [compile_expr(kernel.init[var], outer_scope, flats) for var in loop.state]
    body = [compile_expr(loop.body[var], state_scope, flats) for var in loop.state]
    stores = [_compile_store(store, state_scope, flats, history) for store in loop.stores]
    condition = compile_expr(loop.condition, state_scope, flats)
    epilogue = [_compile_store(store, result_scope, flats, history) for store in kernel.epilogue]

    counts: list[int] = []
    for point in product(*(range(dim.count) for dim in kernel.outer)):
        state = tuple([init(point) for init in inits])
        iterations = 0
        while True:
            state = tuple([update(state) for update in body])
            for write in stores:
                write(state)
            iterations += 1
            if not condition(state):
                break
        counts.append(iterations)
        if epilogue:
            values = point + tuple([state[slot] for slot in result_slots])
            for write in epilogue:
                write(values)
    return counts
