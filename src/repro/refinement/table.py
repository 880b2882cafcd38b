"""A module lowered once: the interned successor table the checkers step.

A denoted module is a tree of ⊎ products and ``[o ⇝ i]`` connections over
leaf components (:attr:`Module.origin`).  Firing it through
``Module.fire`` steps a nested pair state through one lifted generator
per product level, and interning the result hashes the whole nested
tuple again.  :class:`SuccessorTable` lowers the tree once instead:

* a state is a tuple of per-leaf *local ids*, and each leaf interns its
  own local states;
* each leaf transition is memoised per local id (and input value), so a
  leaf fires once per distinct local state, not once per global state;
* a successor replaces one slot of the tuple (a leaf's own input, output
  or internal step) or two (a connection between two leaves);
* nested states are built only when asked for (:meth:`state`), and nested
  states coming in are flattened and interned (:meth:`intern`).

Inputs, outputs and internals are enumerated in exactly the module's own
order and multiplicity — ports in dict order; internals the left
operand's, then the right's, then each connection in the order
:func:`~repro.core.module.connect_ports` appended it — so a caller sees
what ``Module.fire`` would yield, mapped to ids.  The tests hold the table
to ``Module.fire`` on every reachable state of every library obligation.

Memoising per local state assumes leaf transitions are pure: a leaf's
successors are a function of its local state and the input value.
Local states are interned by equality, so two equal states (``True`` and
``1``) share the representative seen first.
"""

from __future__ import annotations

from ..core.module import Module, State, Value
from ..core.ports import Port
from ..errors import SemanticsError

#: A state's shape: a leaf index, or a pair of shapes for a product.
Shape = int | tuple


class SuccessorTable:
    """The interned successor table of one module.

    Global states are dense ids into :attr:`states`, each a tuple of local
    ids, one per leaf.  :meth:`inputs`, :meth:`outputs` and
    :meth:`internals` return successor ids.  Only leaf transitions are
    memoised here; callers that revisit a global state cache what they
    derive from it.
    """

    __slots__ = (
        "module", "output_ports", "states", "_ids", "_nested", "_built", "_shape", "_leaf_states",
        "_leaf_ids", "_inputs", "_outputs", "_internals",
    )

    def __init__(self, module: Module):
        self.module = module
        self.states: list[tuple[int, ...]] = []
        self._ids: dict[tuple[int, ...], int] = {}
        self._nested: list[State | None] = []
        # Nested states handed out by state(), so taking one back in is a
        # single lookup (certificates go out and their states come back).
        self._built: dict[State, int] = {}
        leaves: list[Module] = []
        self._shape, inputs, outputs, internals = _lower(module, leaves)
        #: The module's output ports, in its order.
        self.output_ports: tuple[Port, ...] = tuple(outputs)
        self._leaf_states: list[list[State]] = [[] for _ in leaves]
        self._leaf_ids: list[dict[State, int]] = [{} for _ in leaves]
        # Each transition once, with its leaf and its memo table.
        self._inputs = {
            port: (k, leaves[k].inputs[port].fire, {}) for port, k in inputs.items()
        }
        self._outputs = {
            port: (k, leaves[k].outputs[port].fire, {}) for port, k in outputs.items()
        }
        # A leaf's own step is ``(leaf, fire, memo)``; a connection is the
        # pair of its output and input entries.
        self._internals: list[tuple] = []
        for entry in internals:
            if len(entry) == 2:
                k, index = entry
                self._internals.append((k, leaves[k].internals[index].fire, {}))
            else:
                ko, output, ki, input_ = entry
                self._internals.append((
                    (ko, leaves[ko].outputs[output].fire, {}),
                    (ki, leaves[ki].inputs[input_].fire, {}),
                ))

    # -- interning ------------------------------------------------------------

    def _local(self, k: int, state: State) -> int:
        ids = self._leaf_ids[k]
        lid = ids.get(state)
        if lid is None:
            lid = ids[state] = len(ids)
            self._leaf_states[k].append(state)
        return lid

    def _id(self, flat: tuple[int, ...]) -> int:
        sid = self._ids.get(flat)
        if sid is None:
            sid = self._ids[flat] = len(self.states)
            self.states.append(flat)
            self._nested.append(None)
        return sid

    def intern(self, state: State) -> int:
        """The id of nested *state*; raises :class:`SemanticsError` when
        it is not shaped like the module's states."""
        sid = self._built.get(state)
        if sid is not None:
            return sid
        flat: list[int] = []
        self._flatten(self._shape, state, flat)
        return self._id(tuple(flat))

    def _flatten(self, shape: Shape, part: State, flat: list[int]) -> None:
        # A method, not a closure: a recursive nested function refers to
        # itself through its cell, and every such cycle would keep this
        # table alive until the cyclic collector runs.
        if isinstance(shape, int):
            flat.append(self._local(shape, part))
        elif type(part) is tuple and len(part) == 2:
            self._flatten(shape[0], part[0], flat)
            self._flatten(shape[1], part[1], flat)
        else:
            raise SemanticsError(f"{part!r} is not a state of this module")

    def state(self, sid: int) -> State:
        """The nested state of id *sid*, built on first use."""
        nested = self._nested[sid]
        if nested is None:
            nested = self._nested[sid] = _build(self._shape, self.states[sid], self._leaf_states)
            self._built[nested] = sid
        return nested

    # -- memoised leaf transitions ----------------------------------------------

    def _fire_in(self, entry: tuple, lid: int, value: Value) -> tuple[int, ...]:
        k, fire, memo = entry
        key = (lid, value)
        nxt = memo.get(key)
        if nxt is None:
            nxt = memo[key] = tuple(
                self._local(k, s) for s in fire(self._leaf_states[k][lid], value)
            )
        return nxt

    def _fire_out(self, entry: tuple, lid: int) -> tuple[tuple[Value, int], ...]:
        k, fire, memo = entry
        nxt = memo.get(lid)
        if nxt is None:
            nxt = memo[lid] = tuple(
                (value, self._local(k, s)) for value, s in fire(self._leaf_states[k][lid])
            )
        return nxt

    def _fire_internal(self, entry: tuple, lid: int) -> tuple[int, ...]:
        k, fire, memo = entry
        nxt = memo.get(lid)
        if nxt is None:
            nxt = memo[lid] = tuple(self._local(k, s) for s in fire(self._leaf_states[k][lid]))
        return nxt

    # -- successors ---------------------------------------------------------------

    def inputs(self, sid: int, port: Port, value: Value) -> tuple[int, ...]:
        """Successor ids of accepting *value* on *port*."""
        entry = self._inputs[port]
        k = entry[0]
        flat = self.states[sid]
        local = self._fire_in(entry, flat[k], value)
        if not local:
            return ()
        head, tail = flat[:k], flat[k + 1:]
        return tuple([self._id(head + (lid,) + tail) for lid in local])

    def outputs(self, sid: int, port: Port) -> tuple[tuple[Value, int], ...]:
        """``(value, successor id)`` pairs of emitting on *port*."""
        entry = self._outputs[port]
        k = entry[0]
        flat = self.states[sid]
        local = self._fire_out(entry, flat[k])
        if not local:
            return ()
        head, tail = flat[:k], flat[k + 1:]
        return tuple([(value, self._id(head + (lid,) + tail)) for value, lid in local])

    def internals(self, sid: int) -> tuple[int, ...]:
        """Successor ids of every internal step, in the module's order."""
        flat = self.states[sid]
        succ: list[int] = []
        for entry in self._internals:
            if len(entry) == 3:
                k = entry[0]
                head, tail = flat[:k], flat[k + 1:]
                for lid in self._fire_internal(entry, flat[k]):
                    succ.append(self._id(head + (lid,) + tail))
                continue
            out, in_ = entry
            ko, ki = out[0], in_[0]
            for value, lo in self._fire_out(out, flat[ko]):
                if ko == ki:
                    for li in self._fire_in(in_, lo, value):
                        succ.append(self._id(flat[:ko] + (li,) + flat[ko + 1:]))
                    continue
                for li in self._fire_in(in_, flat[ki], value):
                    nxt = list(flat)
                    nxt[ko], nxt[ki] = lo, li
                    succ.append(self._id(tuple(nxt)))
        return tuple(succ)


def _build(shape: Shape, flat: tuple[int, ...], leaf_states: list[list[State]]) -> State:
    """The nested state of local ids *flat*, shaped like *shape*."""
    if isinstance(shape, int):
        return leaf_states[shape][flat[shape]]
    return (_build(shape[0], flat, leaf_states), _build(shape[1], flat, leaf_states))


def _lower(module: Module, leaves: list[Module]) -> tuple:
    """``(shape, inputs, outputs, internals)`` of *module*, appending its
    leaves to *leaves*: the port dicts map each port to its leaf, in the
    module's order, and *internals* lists ``(leaf, index)`` for a leaf's
    own internal transition and ``(output leaf, output, input leaf,
    input)`` for a connection."""
    origin = module.origin
    if origin is None:
        k = len(leaves)
        leaves.append(module)
        return (
            k,
            dict.fromkeys(module.inputs, k),
            dict.fromkeys(module.outputs, k),
            [(k, index) for index in range(len(module.internals))],
        )
    if origin[0] == "product":
        l_shape, l_in, l_out, l_int = _lower(origin[1], leaves)
        r_shape, r_in, r_out, r_int = _lower(origin[2], leaves)
        return (l_shape, r_shape), {**l_in, **r_in}, {**l_out, **r_out}, l_int + r_int
    _, inner, output, input_ = origin
    shape, inputs, outputs, internals = _lower(inner, leaves)
    connection = (outputs.pop(output), output, inputs.pop(input_), input_)
    return shape, inputs, outputs, internals + [connection]
