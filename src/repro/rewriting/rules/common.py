"""Shared helpers for defining rewrite rules and their obligations.

A rule is defined once, by its lhs pattern and its rhs builder.  Its
obligation (Theorem 4.6 needs ``rhs ⊑ lhs`` of the rewrite actually
applied) is derived from those two alone by :func:`obligation`: each
:class:`Instance` binds the pattern's metavariables, and the rhs is what
the rule's own builder returns for the pattern matched onto itself.  An
edit to a builder therefore changes the checked instance too.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from ...components import default_environment
from ...core.exprhigh import ExprHigh, NodeSpec
from ...core.ports import IOPort
from .. import algebra
from ..rewrite import Match, ObligationInstance, Var


def graph_of(nodes: Mapping[str, object], connections, inputs, outputs) -> ExprHigh:
    """Assemble an ExprHigh from compact descriptions.

    *connections* is an iterable of ``("src.port", "dst.port")`` strings,
    *inputs*/*outputs* map interface indices to ``"node.port"`` strings.
    """
    graph = ExprHigh()
    for name, spec in nodes.items():
        graph.add_node(name, spec)
    for src, dst in connections:
        src_node, _, src_port = src.partition(".")
        dst_node, _, dst_port = dst.partition(".")
        graph.connect(src_node, src_port, dst_node, dst_port)
    for index, endpoint in inputs.items():
        node, _, port = endpoint.partition(".")
        graph.mark_input(index, node, port)
    for index, endpoint in outputs.items():
        node, _, port = endpoint.partition(".")
        graph.mark_output(index, node, port)
    return graph


def is_tagged(match: Match, node: str) -> bool:
    """Whether the host node matched by pattern node *node* is tagged."""
    return bool(match.host_specs[match.nodes[node]].param("tagged", False))


def instantiate(pattern: ExprHigh, bindings: Mapping[str, object]) -> ExprHigh:
    """A copy of *pattern* with every :class:`Var` parameter bound by name."""
    graph = pattern.copy()
    for name, spec in pattern.nodes.items():
        if any(isinstance(value, Var) for _, value in spec.params):
            params = tuple(
                (key, bindings[value.name] if isinstance(value, Var) else value)
                for key, value in spec.params
            )
            graph.replace_spec(name, NodeSpec(spec.typ, spec.in_ports, spec.out_ports, params))
    return graph


class Instance(NamedTuple):
    """One concrete instance of a rule's obligation.

    *stimuli* are keyed by interface index, *bindings* give each pattern
    metavariable a value, and *functions* are registered (name →
    ``(fn, arity)``) beyond the default environment's.
    """

    stimuli: Mapping[int, Iterable[object]]
    bindings: Mapping[str, object] = {}
    functions: Mapping[str, tuple] = {}


def obligation(
    lhs: ExprHigh,
    rhs: Callable[[Match], ExprHigh],
    *instances: Instance,
) -> Callable[[], Iterator[ObligationInstance]]:
    """The obligation of the rule (*lhs*, *rhs*) at *instances*.

    Each instance yields ``(lhs', rhs', env, stimuli)``: ``lhs'`` is the
    pattern with its metavariables bound, ``rhs'`` is the builder applied
    to the match the matcher finds of the pattern in ``lhs'`` (identity
    node map, the instance's bindings; built here without searching), and
    ``env`` is a capacity-1 environment that resolves every Pure function
    either graph names.
    """

    def instances_of_rule() -> Iterator[ObligationInstance]:
        for instance in instances:
            bound = instantiate(lhs, instance.bindings)
            match = Match(
                nodes={name: name for name in bound.nodes},
                params=dict(instance.bindings),
                inputs=bound.inputs,
                outputs=bound.outputs,
                host_specs=bound.nodes,
            )
            built = rhs(match)
            env = default_environment(capacity=1)
            for name, (fn, arity) in instance.functions.items():
                env.register_function(name, fn, arity)
            for graph in (bound, built):
                for spec in graph.nodes.values():
                    if spec.typ == "Pure":
                        algebra.ensure(env, spec.param("fn"))
            stimuli = {IOPort(index): tuple(values) for index, values in instance.stimuli.items()}
            yield bound, built, env, stimuli

    return instances_of_rule
