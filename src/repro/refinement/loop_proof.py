"""Executable artifacts of the section 5 proof of the loop rewrite.

The paper proves 𝓘 ⊑ 𝓢 (the out-of-order loop refines the sequential loop)
through three pieces, each of which is made executable here on bounded
instances:

* **Lemma 5.1 (flushing)** — :func:`check_flushing_lemma`: from any state
  satisfying ω (everything empty except the input queue and the Init
  token), the sequential loop can run internal steps and then emit exactly
  ``fⁿ(i)`` for the next terminating input *i*.
* **Lemma 5.2 (state invariant)** — :func:`check_state_invariant`: the ψ
  predicate (*no-duplication* of tags, *in-order* tag allocation, and the
  *iterate* property that every in-flight value lies on the f-orbit of some
  accepted input) is preserved by every internal transition of the
  out-of-order loop.
* **Theorem 5.3 (refinement)** — :func:`check_loop_refinement`: the weak
  simulation 𝓘 ⊑ 𝓢 itself, decided by the simulation game.

The state of a denoted graph is a right-nested tuple following the
canonical lowering order; :func:`state_accessors` recovers a per-component
view, which is what lets ω and ψ be written as honest state predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ..core.environment import Environment
from ..core.exprhigh import ExprHigh
from ..core.module import Module, State, Value
from ..core.ports import IOPort
from ..core.semantics import denote
from ..errors import RefinementError
from ..rewriting.rules.common import instantiate
from ..rewriting.rules.loop_rewrite import ooo_loop_rhs, sequential_loop_lhs
from .checker import denote_instance
from .simulation import find_weak_simulation


def state_accessors(graph: ExprHigh) -> dict[str, Callable[[State], State]]:
    """Per-node component-state accessors for a denoted graph.

    ``graph.lower()`` folds nodes in sorted order into a right-nested
    product, so the module state is ``(s₀, (s₁, (s₂, ...)))``; connects do
    not change the state shape.
    """
    order = sorted(graph.nodes)

    def make(index: int, last: bool) -> Callable[[State], State]:
        def access(state: State) -> State:
            current = state
            for _ in range(index):
                current = current[1]  # type: ignore[index]
            if not last:
                current = current[0]  # type: ignore[index]
            return current

        return access

    return {
        name: make(index, index == len(order) - 1)
        for index, name in enumerate(order)
    }


def orbit(fn: Callable, value: Value, bound: int = 64) -> list[Value]:
    """The f-orbit of *value*: every loop value, including the final output.

    ``orbit(f, i) = [i, f(i), f²(i), ..., o]`` where ``fⁿ(i) = (o, false)``.
    """
    values = [value]
    current = value
    for _ in range(bound):
        result, cont = fn(current)
        values.append(result)
        if not cont:
            return values
        current = result
    raise RefinementError(f"loop input {value!r} did not terminate within {bound} steps")


# -- the sequential loop: ω and lemma 5.1 -------------------------------------


@dataclass
class SequentialLoop:
    """The concrete sequential loop (lhs of fig. 3d) with its accessors."""

    graph: ExprHigh
    module: Module
    accessors: dict[str, Callable[[State], State]]

    @staticmethod
    def build(fn_name: str, env: Environment) -> "SequentialLoop":
        graph = instantiate(sequential_loop_lhs(), {"F": fn_name})
        module = denote(graph.lower(), env)
        return SequentialLoop(graph, module, state_accessors(graph))

    def omega(self, state: State) -> bool:
        """ω: every queue empty except the input queue and the Init token.

        The single ``false`` token steering the Mux to its external input
        may rest anywhere along the condition path — the Fork's init-side
        queue, the Init queue, or the Mux's condition queue — because the
        connect transitions are free to fire eagerly.  ω accepts any of the
        quiescent placements.
        """
        mux = self.accessors["mx"](state)
        cond_q, true_q, false_q = mux  # false_q is the external-input queue
        if true_q:
            return False
        if self.accessors["body"](state) != ((),):
            return False
        if self.accessors["sp"](state) != ((), ()):
            return False
        fork_branch_q, fork_init_q = self.accessors["fk"](state)
        if fork_branch_q:
            return False
        if self.accessors["br"](state) != ((), ()):
            return False
        (init_q,) = self.accessors["ini"](state)
        steering_tokens = tuple(fork_init_q) + tuple(init_q) + tuple(cond_q)
        return steering_tokens == (False,)


def check_flushing_lemma(
    fn_name: str,
    env: Environment,
    inputs: Iterable[Value],
    max_steps: int = 10_000,
) -> int:
    """Lemma 5.1, executed: returns the number of inputs checked.

    For each terminating input *i*: enqueue it into an ω state, run internal
    transitions, and confirm the loop emits exactly ``fⁿ(i)`` and returns to
    an ω state.  Raises :class:`RefinementError` otherwise.
    """
    loop = SequentialLoop.build(fn_name, env)
    fn = env.function(fn_name)
    checked = 0
    for value in inputs:
        final = orbit(fn.fn, value)[-1]

        (start,) = loop.module.init
        if not loop.omega(start):
            raise RefinementError("initial state does not satisfy ω")
        states = list(loop.module.inputs[IOPort(0)].fire(start, value))
        if len(states) != 1:
            raise RefinementError("input transition was not deterministic")
        current = {states[0]}
        emitted: set[Value] = set()
        out = loop.module.outputs[IOPort(0)]
        seen: set[State] = set()
        frontier = list(current)
        while frontier:
            state = frontier.pop()
            if state in seen:
                continue
            seen.add(state)
            if len(seen) > max_steps:
                raise RefinementError("flushing exploration exceeded the step bound")
            for out_value, after in out.fire(state):
                emitted.add(out_value)
                if not loop.omega(after):
                    raise RefinementError(
                        f"after emitting {out_value!r}, ω does not hold: {after!r}"
                    )
            frontier.extend(loop.module.internal_steps(state))
        if emitted != {final}:
            raise RefinementError(
                f"flushing input {value!r}: expected output {{{final!r}}}, got {emitted!r}"
            )
        checked += 1
    return checked


# -- the out-of-order loop: ψ and lemma 5.2 ------------------------------------


@dataclass
class OutOfOrderLoop:
    """The concrete tagged loop (rhs of fig. 3d) with its accessors."""

    graph: ExprHigh
    module: Module
    accessors: dict[str, Callable[[State], State]]
    fn: Callable
    inputs: tuple[Value, ...]

    @staticmethod
    def build(fn_name: str, env: Environment, tags: int, inputs: Iterable[Value]) -> "OutOfOrderLoop":
        graph = ooo_loop_rhs(fn_name, tags)
        module = denote(graph.lower(), env)
        return OutOfOrderLoop(
            graph, module, state_accessors(graph), env.function(fn_name).fn, tuple(inputs)
        )

    def tagged_values(self, state: State) -> list[tuple[int, Value]]:
        """Every (tag, value) pair in flight inside the tagged region."""
        pairs: list[tuple[int, Value]] = []
        tagger = self.accessors["tg"](state)
        _, out_q, done = tagger
        pairs.extend(out_q)
        pairs.extend(done)
        merge = self.accessors["mg"](state)
        pairs.extend(merge[0])
        pairs.extend(merge[1])
        pairs.extend(self.accessors["body"](state)[0])
        branch = self.accessors["br"](state)
        pairs.extend(branch[1])  # data queue holds (tag, value)
        # The split and branch condition queues carry (tag, (v, bool)) or
        # (tag, bool); normalise to (tag, payload) for tag accounting.
        split = self.accessors["sp"](state)
        pairs.extend(split[0])
        pairs.extend(split[1])
        pairs.extend(branch[0])
        return [p for p in pairs if isinstance(p, tuple) and len(p) == 2]

    def psi(self, state: State) -> bool:
        """ψ: no-duplication + in-order + iterate (section 5.2)."""
        tagger = self.accessors["tg"](state)
        order, out_q, done = tagger
        # In-order: the allocation queue holds distinct, allocated tags.
        if len(set(order)) != len(order):
            return False
        pairs = self.tagged_values(state)
        # No-duplication, refined: a tag may appear several times while its
        # token is mid-flight through a Split (value and condition travel
        # separately), but never twice in the same queue with conflicting
        # payloads, and only for allocated tags.
        for tag, _ in pairs:
            if tag not in order:
                return False
        # Iterate: every in-flight data value lies on the orbit of some input.
        orbits = []
        for value in self.inputs:
            orbits.extend(orbit(self.fn, value))
        allowed = set(orbits)
        for tag, payload in pairs:
            candidate = payload
            if isinstance(candidate, tuple) and len(candidate) == 2 and isinstance(candidate[1], bool):
                candidate = candidate[0]  # (value, continue?) pair after the body
            if isinstance(candidate, bool):
                continue  # a condition token
            if candidate not in allowed:
                return False
        return True


def check_state_invariant(
    fn_name: str,
    env: Environment,
    inputs: Iterable[Value],
    tags: int = 2,
    limit: int = 200_000,
) -> int:
    """Lemma 5.2, executed: ψ is preserved by every internal transition.

    Explores every reachable state of the out-of-order loop under the given
    inputs and checks ψ on each internal successor.  Returns the number of
    states visited.
    """
    loop = OutOfOrderLoop.build(fn_name, env, tags, inputs)
    stimuli = {IOPort(0): tuple(inputs)}

    seen: set[State] = set()
    frontier = list(loop.module.init)
    for state in frontier:
        if not loop.psi(state):
            raise RefinementError("ψ fails on an initial state")
    seen.update(frontier)
    while frontier:
        state = frontier.pop()
        successors: list[State] = []
        for value in stimuli[IOPort(0)]:
            successors.extend(loop.module.inputs[IOPort(0)].fire(state, value))
        for _, nxt in loop.module.outputs[IOPort(0)].fire(state):
            successors.append(nxt)
        internal_successors = list(loop.module.internal_steps(state))
        for nxt in internal_successors:
            if not loop.psi(nxt):
                raise RefinementError(
                    f"ψ violated by an internal step from {state!r} to {nxt!r}"
                )
        successors.extend(internal_successors)
        for nxt in successors:
            if nxt not in seen:
                seen.add(nxt)
                if len(seen) > limit:
                    raise RefinementError("state invariant exploration exceeded the limit")
                frontier.append(nxt)
    return len(seen)


# -- theorem 5.3 ----------------------------------------------------------------


def check_loop_refinement(
    fn_name: str,
    env: Environment,
    inputs: Iterable[Value],
    tags: int = 2,
):
    """Theorem 5.3, decided on the bounded instance: 𝓘 ⊑ 𝓢."""
    impl, spec, stimuli = denote_instance(
        instantiate(sequential_loop_lhs(), {"F": fn_name}),
        ooo_loop_rhs(fn_name, tags),
        env,
        {IOPort(0): tuple(inputs)},
    )
    result = find_weak_simulation(impl, spec, stimuli)
    return result.raise_on_failure()
