"""Trace semantics and trace-inclusion testing: the tests' third oracle.

The paper defines behaviours of a graph as traces of input/output values and
proves that refinement implies trace inclusion.  Here traces are enumerated
directly: an *event* is ``("in", port, value)`` or ``("out", port, value)``;
internal transitions are invisible.  :func:`trace_inclusion` bounded-checks
that every implementation trace is also a specification trace — the property
the test-suite uses to validate the simulation checker against an
independent semantics.  No library path decides an obligation this way, so
the oracle lives with the tests that use it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.core.environment import Environment
from repro.core.exprhigh import ExprHigh
from repro.core.module import Module, State, Value
from repro.core.ports import Port
from repro.errors import RefinementError
from repro.refinement.checker import denote_instance

Event = tuple[str, Port, Value]
Trace = tuple[Event, ...]


def _after_events(module: Module, states: frozenset[State], event: Event) -> frozenset[State]:
    """States reachable by performing *event* (with interleaved taus) from *states*."""
    kind, port, value = event
    closed: set[State] = set()
    for state in states:
        closed.update(module.tau_closure(state))
    result: set[State] = set()
    if kind == "in":
        transition = module.inputs.get(port)
        if transition is None:
            return frozenset()
        for state in closed:
            for nxt in transition.fire(state, value):
                result.update(module.tau_closure(nxt))
    else:
        transition = module.outputs.get(port)
        if transition is None:
            return frozenset()
        for state in closed:
            for emitted, nxt in transition.fire(state):
                if emitted == value:
                    result.update(module.tau_closure(nxt))
    return frozenset(result)


def enumerate_traces(
    module: Module,
    stimuli: Mapping[Port, Iterable[Value]],
    depth: int,
) -> frozenset[Trace]:
    """All I/O traces of length ≤ *depth* under the given stimuli."""
    stimuli = {port: tuple(values) for port, values in stimuli.items()}
    initial: set[State] = set()
    for state in module.init:
        initial.update(module.tau_closure(state))

    traces: set[Trace] = {()}
    frontier: list[tuple[Trace, frozenset[State]]] = [((), frozenset(initial))]
    while frontier:
        trace, states = frontier.pop()
        if len(trace) >= depth:
            continue
        for event in _possible_events(module, states, stimuli):
            nxt = _after_one(module, states, event)
            if not nxt:
                continue
            extended = trace + (event,)
            if extended not in traces:
                traces.add(extended)
                frontier.append((extended, nxt))
    return frozenset(traces)


def _possible_events(
    module: Module,
    states: frozenset[State],
    stimuli: Mapping[Port, tuple[Value, ...]],
) -> Iterator[Event]:
    for port, values in stimuli.items():
        transition = module.inputs.get(port)
        if transition is None:
            continue
        for value in values:
            if any(True for state in states for _ in transition.fire(state, value)):
                yield ("in", port, value)
    for port, transition in module.outputs.items():
        emitted = {value for state in states for value, _ in transition.fire(state)}
        for value in emitted:
            yield ("out", port, value)


def _after_one(module: Module, states: frozenset[State], event: Event) -> frozenset[State]:
    kind, port, value = event
    result: set[State] = set()
    if kind == "in":
        transition = module.inputs[port]
        for state in states:
            for nxt in transition.fire(state, value):
                result.update(module.tau_closure(nxt))
    else:
        transition = module.outputs[port]
        for state in states:
            for emitted, nxt in transition.fire(state):
                if emitted == value:
                    result.update(module.tau_closure(nxt))
    return frozenset(result)


def can_perform(module: Module, trace: Trace) -> bool:
    """Whether the module can perform the exact event sequence *trace*."""
    states: set[State] = set()
    for state in module.init:
        states.update(module.tau_closure(state))
    current = frozenset(states)
    for event in trace:
        current = _after_events(module, current, event)
        if not current:
            return False
    return True


def trace_inclusion(
    impl: Module,
    spec: Module,
    stimuli: Mapping[Port, Iterable[Value]],
    depth: int,
) -> Trace | None:
    """Return an implementation trace the spec cannot perform, or None.

    ``None`` means every impl trace of length ≤ *depth* is a spec trace —
    the behaviour-inclusion notion that refinement implies (section 4.4).
    """
    impl_traces = enumerate_traces(impl, stimuli, depth)
    for trace in sorted(impl_traces, key=lambda t: (len(t), repr(t))):
        if not can_perform(spec, trace):
            return trace
    return None


def check_rewrite_obligation_traces(
    lhs: ExprHigh,
    rhs: ExprHigh,
    env: Environment,
    stimuli: Mapping[Port, Iterable[Value]],
    depth: int = 4,
) -> None:
    """Cross-validate an obligation through the trace semantics.

    Refinement implies trace inclusion (section 4.4), so every rhs trace of
    bounded length must be an lhs trace.  This is an independent check of
    the simulation game — slower (trace enumeration is exponential in
    *depth*) but conceptually simpler, which is exactly what makes it a
    good oracle for the checker itself.
    """
    rhs_module, lhs_module, stimuli = denote_instance(lhs, rhs, env, stimuli)
    witness = trace_inclusion(rhs_module, lhs_module, stimuli, depth)
    if witness is not None:
        raise RefinementError(
            f"rhs trace not reproducible by lhs: {witness}", counterexample=witness
        )
