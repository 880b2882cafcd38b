"""Buffer elimination, a verified normaliser that only the tests apply.

The pipeline never removes a Buffer, so this rewrite is not part of the
library; the Theorem 4.6 fuzz uses it as one of its normalisers, the
deep-host tests apply it along a long chain, and its obligation is
discharged by the same checks as the library's.
"""

from repro.components import pure
from repro.core.exprhigh import NodeSpec
from repro.rewriting.rewrite import Match, Rewrite, Var
from repro.rewriting.rules.common import Instance, graph_of, obligation


def _buffer_elim_lhs():
    spec = NodeSpec.make("Buffer", ["in0"], ["out0"], {"slots": Var("S")})
    return graph_of({"b": spec}, [], {0: "b.in0"}, {0: "b.out0"})


def _buffer_elim_rhs(match: Match):
    return graph_of({"w": pure("id")}, [], {0: "w.in0"}, {0: "w.out0"})


def buffer_elim() -> Rewrite:
    """A buffer shrinks to a wire: fewer slots, fewer behaviours."""
    lhs = _buffer_elim_lhs()
    return Rewrite(
        name="buffer-elim",
        lhs=lhs,
        rhs=_buffer_elim_rhs,
        verified=True,
        obligation=obligation(lhs, _buffer_elim_rhs, Instance({0: ("x", "y")}, {"S": 3})),
        description="Buffer removal refines (slack only adds behaviours)",
    )
