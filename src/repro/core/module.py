"""Modules: the semantic objects of the paper (figure 7), made executable.

A module 𝓜(S) is a map from port names to input transitions, a map from
port names to output transitions, a collection of internal transitions, and
a set of initial states.  In the paper transitions are relations; here they
are executable: a transition takes a state (an arbitrary hashable value) and
enumerates the possible successor states, which makes nondeterminism — the
heart of out-of-order semantics — a matter of yielding several successors.

The three combinators of section 4.5 are provided:

* :func:`rename` — rename ports through port maps;
* :func:`product` — the ⊎ union combinator over a product state;
* :func:`connect_ports` — ``m[o ⇝ i]``, fusing an output transition with an
  input transition into a single internal transition (no internal step may
  fire in between, which is the source of the asymmetry in the refinement
  definitions of section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from ..errors import SemanticsError
from .ports import Port, PortMap
from .types import Type

State = Hashable
Value = Hashable


@dataclass(frozen=True)
class InputTransition:
    """An input transition: consumes a value, yields successor states."""

    typ: Type
    fire: Callable[[State, Value], Iterable[State]]


@dataclass(frozen=True)
class OutputTransition:
    """An output transition: yields (emitted value, successor state) pairs."""

    typ: Type
    fire: Callable[[State], Iterable[tuple[Value, State]]]


@dataclass(frozen=True)
class InternalTransition:
    """An internal transition: yields successor states, no I/O."""

    name: str
    fire: Callable[[State], Iterable[State]]


class Module:
    """An executable module 𝓜(S); see figure 7 of the paper.

    *origin* records what the module was built from: ``("product", first,
    second)`` for :func:`product`, ``("connect", inner, output, input)``
    for :func:`connect_ports`, and None for a *leaf* — a module built any
    other way.  :mod:`repro.refinement.table` lowers a module through it.

    The two combinators keep only their origin, port names and initial
    states; a composite's lifted transitions are built from its origin on
    first access to :attr:`inputs`, :attr:`outputs` or :attr:`internals`.
    The refinement checkers step the leaves, so denoting an obligation
    builds no lifted transition at all.
    """

    __slots__ = ("init", "origin", "_inputs", "_outputs", "_internals", "_in_ports", "_out_ports")

    def __init__(
        self,
        inputs: Mapping[Port, InputTransition],
        outputs: Mapping[Port, OutputTransition],
        internals: tuple[InternalTransition, ...],
        init: frozenset[State],
        origin: tuple | None = None,
    ):
        if not init:
            raise SemanticsError("module requires at least one initial state")
        self._inputs = inputs if isinstance(inputs, dict) else dict(inputs)
        self._outputs = outputs if isinstance(outputs, dict) else dict(outputs)
        self._internals = internals
        # Dicts keyed by the ports in the module's order; only keys count.
        self._in_ports = self._inputs
        self._out_ports = self._outputs
        self.init = init
        self.origin = origin

    @classmethod
    def _composite(
        cls, in_ports: dict, out_ports: dict, init: frozenset[State], origin: tuple
    ) -> "Module":
        module = cls.__new__(cls)
        module._inputs = module._outputs = module._internals = None
        module._in_ports, module._out_ports = in_ports, out_ports
        module.init, module.origin = init, origin
        return module

    @property
    def inputs(self) -> dict[Port, InputTransition]:
        if self._inputs is None:
            self._lift()
        return self._inputs

    @property
    def outputs(self) -> dict[Port, OutputTransition]:
        if self._outputs is None:
            self._lift()
        return self._outputs

    @property
    def internals(self) -> tuple[InternalTransition, ...]:
        if self._internals is None:
            self._lift()
        return self._internals

    def _lift(self) -> None:
        """Build a composite's transitions from its origin."""
        if self.origin[0] == "product":
            _, first, second = self.origin
            inputs = {port: _lift_input_left(t) for port, t in first.inputs.items()}
            inputs.update((port, _lift_input_right(t)) for port, t in second.inputs.items())
            outputs = {port: _lift_output_left(t) for port, t in first.outputs.items()}
            outputs.update((port, _lift_output_right(t)) for port, t in second.outputs.items())
            internals = tuple(
                [_lift_internal_left(t) for t in first.internals]
                + [_lift_internal_right(t) for t in second.internals]
            )
        else:
            _, inner, output, input_ = self.origin
            out_t = inner.outputs[output]
            in_t = inner.inputs[input_]

            def fire(state: State) -> Iterator[State]:
                for value, intermediate in out_t.fire(state):
                    yield from in_t.fire(intermediate, value)

            inputs = {p: t for p, t in inner.inputs.items() if p != input_}
            outputs = {p: t for p, t in inner.outputs.items() if p != output}
            internals = inner.internals + (InternalTransition(f"conn({output}⇝{input_})", fire),)
        self._inputs, self._outputs, self._internals = inputs, outputs, internals

    # -- exploration helpers -------------------------------------------------

    def internal_steps(self, state: State) -> Iterator[State]:
        """All states reachable in exactly one internal step."""
        for transition in self.internals:
            yield from transition.fire(state)

    def tau_closure(self, state: State) -> frozenset[State]:
        """All states reachable by zero or more internal steps."""
        seen = {state}
        frontier = [state]
        while frontier:
            current = frontier.pop()
            for nxt in self.internal_steps(current):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    def input_ports(self) -> frozenset[Port]:
        return frozenset(self._in_ports)

    def output_ports(self) -> frozenset[Port]:
        return frozenset(self._out_ports)


def rename(module: Module, in_map: PortMap, out_map: PortMap) -> Module:
    """Rename the module's ports; unmapped ports keep their names."""
    old_inputs, old_outputs = module.inputs, module.outputs
    inputs = {in_map.apply(port): t for port, t in old_inputs.items()}
    outputs = {out_map.apply(port): t for port, t in old_outputs.items()}
    if len(inputs) != len(old_inputs) or len(outputs) != len(old_outputs):
        raise SemanticsError("renaming collapsed two ports onto the same name")
    return Module(inputs, outputs, module.internals, module.init)


def _lift_input_left(transition: InputTransition) -> InputTransition:
    def fire(state: State, value: Value) -> Iterator[State]:
        left, right = state  # type: ignore[misc]
        for nxt in transition.fire(left, value):
            yield (nxt, right)

    return InputTransition(transition.typ, fire)


def _lift_input_right(transition: InputTransition) -> InputTransition:
    def fire(state: State, value: Value) -> Iterator[State]:
        left, right = state  # type: ignore[misc]
        for nxt in transition.fire(right, value):
            yield (left, nxt)

    return InputTransition(transition.typ, fire)


def _lift_output_left(transition: OutputTransition) -> OutputTransition:
    def fire(state: State) -> Iterator[tuple[Value, State]]:
        left, right = state  # type: ignore[misc]
        for value, nxt in transition.fire(left):
            yield value, (nxt, right)

    return OutputTransition(transition.typ, fire)


def _lift_output_right(transition: OutputTransition) -> OutputTransition:
    def fire(state: State) -> Iterator[tuple[Value, State]]:
        left, right = state  # type: ignore[misc]
        for value, nxt in transition.fire(right):
            yield value, (left, nxt)

    return OutputTransition(transition.typ, fire)


def _lift_internal_left(transition: InternalTransition) -> InternalTransition:
    def fire(state: State) -> Iterator[State]:
        left, right = state  # type: ignore[misc]
        for nxt in transition.fire(left):
            yield (nxt, right)

    return InternalTransition(f"L.{transition.name}", fire)


def _lift_internal_right(transition: InternalTransition) -> InternalTransition:
    def fire(state: State) -> Iterator[State]:
        left, right = state  # type: ignore[misc]
        for nxt in transition.fire(right):
            yield (left, nxt)

    return InternalTransition(f"R.{transition.name}", fire)


def product(first: Module, second: Module) -> Module:
    """The ⊎ combinator: union of two modules over a product state.

    Port names must be disjoint — in a well-formed graph they are, because
    each instance owns its port namespace.
    """
    in_overlap = first._in_ports.keys() & second._in_ports.keys()
    out_overlap = first._out_ports.keys() & second._out_ports.keys()
    if in_overlap or out_overlap:
        raise SemanticsError(
            f"product of modules with overlapping ports: {sorted(map(str, in_overlap | out_overlap))}"
        )
    return Module._composite(
        {**first._in_ports, **second._in_ports},
        {**first._out_ports, **second._out_ports},
        frozenset((l, r) for l in first.init for r in second.init),
        ("product", first, second),
    )


def connect_ports(module: Module, output: Port, input_: Port) -> Module:
    """The ``m[o ⇝ i]`` combinator of section 4.5.

    The output and input transitions are removed and replaced by one atomic
    internal transition that emits the value and immediately consumes it —
    with no internal steps allowed in between.
    """
    if output not in module._out_ports:
        raise SemanticsError(f"module has no output port {output}")
    if input_ not in module._in_ports:
        raise SemanticsError(f"module has no input port {input_}")
    inputs = dict(module._in_ports)
    del inputs[input_]
    outputs = dict(module._out_ports)
    del outputs[output]
    return Module._composite(inputs, outputs, module.init, ("connect", module, output, input_))


# -- queue helpers used by component definitions -----------------------------
#
# The paper models component state as tuples of lists with enq (add to the
# front) and deq (remove from the end); we use immutable tuples so states are
# hashable.

Queue = tuple


def enq(queue: Queue, value: Value, capacity: int | None = None) -> Queue | None:
    """Add *value* to the front of *queue*; None when the queue is full."""
    if capacity is not None and len(queue) >= capacity:
        return None
    return (value,) + queue


def deq(queue: Queue) -> tuple[Value, Queue] | None:
    """Remove the oldest element (the end); None when empty."""
    if not queue:
        return None
    return queue[-1], queue[:-1]


def first(queue: Queue) -> Value | None:
    """The oldest element (the end of the queue), or None when empty."""
    if not queue:
        return None
    return queue[-1]


def io_module(
    inputs: Mapping[Port, tuple[Type, Callable[[State, Value], Iterable[State]]]],
    outputs: Mapping[Port, tuple[Type, Callable[[State], Iterable[tuple[Value, State]]]]],
    internals: Iterable[tuple[str, Callable[[State], Iterable[State]]]] = (),
    init: Iterable[State] = ((),),
) -> Module:
    """Convenience constructor assembling a module from plain callables."""
    return Module(
        {p: InputTransition(t, f) for p, (t, f) in inputs.items()},
        {p: OutputTransition(t, f) for p, (t, f) in outputs.items()},
        tuple(InternalTransition(n, f) for n, f in internals),
        frozenset(init),
    )
