"""Rewrite objects: a left-hand-side pattern, a right-hand-side builder.

A rewrite (section 3 of the paper) is specified by a pair of graphs.  The
lhs is an ExprHigh *pattern*: a small graph whose node names are pattern
variables, whose parameters may be :class:`Var` metavariables, and whose
marked external inputs/outputs define the *interface* — the boundary ports
that the surrounding graph keeps connecting to after the rewrite.  The rhs
is a builder function from a :class:`Match` to a replacement graph exposing
the same interface indices.

Each rewrite carries a ``verified`` flag and an optional *obligation*: a
callable producing bounded (lhs, rhs, environment, stimuli) instances on
which ``rhs ⊑ lhs`` is checked by the refinement engine.  This mirrors the
paper's division: the rewriting function is correctness-preserving given the
per-rewrite refinement (theorem 4.6); rewrites without a discharged
obligation are applied as *unverified*, like the paper's 19 minor rewrites
(here two of the library's 18 minor rewrites are unverified).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from ..core.environment import Environment
from ..core.exprhigh import Endpoint, ExprHigh, NodeSpec


@dataclass(frozen=True)
class Var:
    """A metavariable usable as a parameter value in a pattern NodeSpec."""

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


@dataclass
class Match:
    """A located occurrence of a pattern in a host graph."""

    nodes: dict[str, str]  # pattern node name -> host node name
    params: dict[str, object]  # metavariable bindings
    inputs: dict[int, Endpoint]  # interface input index -> host endpoint
    outputs: dict[int, Endpoint]  # interface output index -> host endpoint
    host_specs: dict[str, NodeSpec] = field(default_factory=dict)

    def host_nodes(self) -> frozenset[str]:
        return frozenset(self.nodes.values())

    def bind(self, value: object) -> object:
        """Resolve *value* if it is a metavariable, else return it as is."""
        if isinstance(value, Var):
            return self.params[value.name]
        return value


#: An obligation instance: (lhs graph, rhs graph, environment, stimuli).
ObligationInstance = tuple[ExprHigh, ExprHigh, Environment, Mapping]


@dataclass
class Rewrite:
    """A named rewrite with its pattern, builder, and proof status."""

    name: str
    lhs: ExprHigh
    rhs: Callable[[Match], ExprHigh]
    verified: bool = False
    obligation: Callable[[], Iterable[ObligationInstance]] | None = None
    description: str = ""


def pattern(build: Callable[[ExprHigh], None]) -> ExprHigh:
    """Small helper: run *build* on a fresh graph and return it."""
    graph = ExprHigh()
    build(graph)
    return graph
