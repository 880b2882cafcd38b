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
truth that circuit simulations are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
    "mod": lambda a, b: a % b if b else 0,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "ne": lambda a, b: a != b,
    "eq": lambda a, b: a == b,
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


def binop_count(expr: Expr) -> int:
    """Number of operator nodes in an expression (used by area/scheduling)."""
    if isinstance(expr, (Var, Const)):
        return 0
    if isinstance(expr, BinOp):
        return 1 + binop_count(expr.left) + binop_count(expr.right)
    if isinstance(expr, UnOp):
        return 1 + binop_count(expr.operand)
    if isinstance(expr, Load):
        return 1 + binop_count(expr.index)
    if isinstance(expr, Select):
        return 1 + binop_count(expr.cond) + binop_count(expr.if_true) + binop_count(expr.if_false)
    raise FrontendError(f"unknown expression {expr!r}")


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

    def step(self, state: Mapping[str, object], arrays) -> tuple[dict[str, object], bool]:
        """One body execution: returns (new state, continue?); applies stores."""
        new_state = {
            var: eval_expr(self.body[var], state, arrays) for var in self.state
        }
        for store in self.stores:
            index = int(eval_expr(store.index, new_state, arrays))
            arrays[store.array].flat[index] = eval_expr(store.value, new_state, arrays)
        cont = bool(eval_expr(self.condition, new_state, arrays))
        return new_state, cont


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
      values (bound under the result variable names).
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
        def recurse(dims, env):
            if not dims:
                yield dict(env)
                return
            head, *rest = dims
            for value in range(head.count):
                env[head.var] = value
                yield from recurse(rest, env)
            env.pop(head.var, None)

        yield from recurse(list(self.outer), {})

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


def run_program(program: Program, arrays: dict[str, np.ndarray] | None = None) -> ExecutionTrace:
    """Execute *program* sequentially — the C semantics ground truth."""
    memory = arrays if arrays is not None else program.copy_arrays()
    history: list[tuple[str, int, object]] = []
    trip_counts: list[list[int]] = []

    recording = _RecordingArrays(memory, history)
    for kernel in program.kernels:
        counts: list[int] = []
        trip_counts.append(counts)
        for outer_env in kernel.outer_points():
            state = {
                v: eval_expr(kernel.init[v], outer_env, recording) for v in kernel.loop.state
            }
            iterations = 0
            cont = True
            while cont:
                state, cont = kernel.loop.step(state, recording)
                iterations += 1
            counts.append(iterations)
            result_env = {v: state[v] for v in kernel.loop.result_vars}
            result_env.update(outer_env)
            for store in kernel.epilogue:
                index = int(eval_expr(store.index, result_env, recording))
                value = eval_expr(store.value, result_env, recording)
                recording[store.array].flat[index] = value
    return ExecutionTrace(arrays=memory, store_history=history, trip_counts=trip_counts)


class _RecordingArrays(dict):
    """Array mapping that records writes through ``.flat`` assignment."""

    def __init__(self, arrays: dict[str, np.ndarray], history: list):
        super().__init__()
        self._history = history
        for name, array in arrays.items():
            self[name] = _RecordingArray(name, array, history)


class _RecordingArray:
    def __init__(self, name: str, array: np.ndarray, history: list):
        self._name = name
        self._array = array
        self._history = history
        self.flat = _RecordingFlat(name, array, history)

    def __getattr__(self, item):
        return getattr(self._array, item)


class _RecordingFlat:
    def __init__(self, name: str, array: np.ndarray, history: list):
        self._name = name
        self._array = array
        self._history = history

    def __getitem__(self, index):
        return self._array.flat[index]

    def __setitem__(self, index, value):
        self._history.append((self._name, int(index), value))
        self._array.flat[index] = value
