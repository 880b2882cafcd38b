"""``Module.fire`` as the oracle for the refinement layer's successor table.

:class:`repro.refinement.table.SuccessorTable` steps a lowered module
without firing it; :func:`assert_table_matches_fire` holds each of its
successor lists to the one ``Module.fire`` enumerates on the nested state,
in order and multiplicity.  States are compared by ``state_bytes``, never
by ``==``: equality would let ``True`` pass for ``1``.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.core.ports import Port
from repro.refinement.encoding import state_bytes
from repro.refinement.table import SuccessorTable


def _bytes(states) -> list[bytes]:
    return [state_bytes(s) for s in states]


def _emits(pairs) -> list[tuple[bytes, bytes]]:
    return [(state_bytes(value), state_bytes(s)) for value, s in pairs]


def assert_table_matches_fire(
    table: SuccessorTable, stimuli: Mapping[Port, Iterable], sids: Iterable[int]
) -> int:
    """Check every move of the states *sids* against ``Module.fire``;
    returns the number of successor lists compared."""
    module, state = table.module, table.state
    compared = 0
    for sid in sids:
        nested = state(sid)
        assert table.intern(nested) == sid
        for port, values in stimuli.items():
            for value in values:
                expected = module.inputs[port].fire(nested, value)
                got = map(state, table.inputs(sid, port, value))
                assert _bytes(got) == _bytes(expected), (sid, port, value)
                compared += 1
        for port, transition in module.outputs.items():
            got = ((value, state(t)) for value, t in table.outputs(sid, port))
            assert _emits(got) == _emits(transition.fire(nested)), (sid, port)
            compared += 1
        got = map(state, table.internals(sid))
        assert _bytes(got) == _bytes(module.internal_steps(nested)), sid
        compared += 1
    return compared


def reachable(table: SuccessorTable, stimuli: Mapping[Port, Iterable], limit: int) -> list[int]:
    """Ids of up to *limit* states reachable from the module's initial
    states, breadth first, through the table's own successors."""
    order = [table.intern(s0) for s0 in table.module.init]
    seen = set(order)
    for sid in order:
        if len(order) >= limit:
            break
        successors = [t for port, values in stimuli.items() for v in values
                      for t in table.inputs(sid, port, v)]
        successors += [t for port in table.module.outputs for _, t in table.outputs(sid, port)]
        successors += table.internals(sid)
        for t in successors:
            if t not in seen:
                seen.add(t)
                order.append(t)
    return order[:limit]
