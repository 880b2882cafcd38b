"""ExprLow: the inductive graph language of the paper (section 4.1).

A graph is either a base component, a product of two graphs (written ⊗ in
the paper), or a connection of an output port to an input port of a graph::

    ExprLow ::= C_L | ExprLow ⊗ ExprLow | connect(o, i, ExprLow)

A base component ``C_L = P × STR`` is a component type name together with a
pair of port maps renaming the component's canonical ports to the names used
in the graph.  The inductive shape — rather than an adjacency structure — is
what makes the semantics compositional: products and connections denote
module combinators (section 4.5), and the rewriting function of section 4.2
is a structural substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from ..errors import GraphError
from .ports import InternalPort, Port, PortMap


class ExprLow:
    """Base class for ExprLow expressions.  Immutable and hashable."""

    def _walk(self) -> Iterator["ExprLow"]:
        """Yield every subterm in pre-order, left to right.

        Iterative, like the other whole-term traversals below, so a lowered
        graph of thousands of nodes (a product fold and a connect chain each
        as deep as the graph is large) does not hit the recursion limit.
        """
        stack: list[ExprLow] = [self]
        while stack:
            expr = stack.pop()
            yield expr
            stack.extend(reversed(expr._children()))

    def bases(self) -> Iterator["Base"]:
        """Yield every base component, left to right."""
        for expr in self._walk():
            if isinstance(expr, Base):
                yield expr

    def connections(self) -> Iterator[tuple[Port, Port]]:
        """Yield every ``(output, input)`` pair closed by a connect, outermost first."""
        for expr in self._walk():
            if isinstance(expr, Connect):
                yield (expr.output, expr.input)

    def dangling_inputs(self) -> frozenset[Port]:
        """Input ports not consumed by any connect — the graph's inputs."""
        return _dangling(self, outputs=False)

    def dangling_outputs(self) -> frozenset[Port]:
        """Output ports not consumed by any connect — the graph's outputs."""
        return _dangling(self, outputs=True)

    def substitute(self, lhs: "ExprLow", rhs: "ExprLow") -> "ExprLow":
        """The rewriting function ``e[lhs := rhs]`` of section 4.2.

        Finds syntactic occurrences of *lhs* and replaces them by *rhs*.
        The substitution recurses structurally and replaces every match.
        """
        if self == lhs:
            return rhs
        return self._substitute_children(lhs, rhs)

    def _substitute_children(self, lhs: "ExprLow", rhs: "ExprLow") -> "ExprLow":
        raise NotImplementedError

    def rename_internals(self, mapping: Mapping[str, str]) -> "ExprLow":
        """Rename instance names of internal ports throughout the expression."""
        raise NotImplementedError

    def size(self) -> int:
        """Number of base components in the expression."""
        return sum(1 for _ in self.bases())

    def contains(self, sub: "ExprLow") -> bool:
        """Whether *sub* occurs syntactically inside this expression."""
        if self == sub:
            return True
        return any(child.contains(sub) for child in self._children())

    def _children(self) -> tuple["ExprLow", ...]:
        raise NotImplementedError


@dataclass(frozen=True)
class Base(ExprLow):
    """A single component instance: a type name plus input/output port maps."""

    typ: str
    inputs: PortMap
    outputs: PortMap

    def __post_init__(self) -> None:
        if not self.typ:
            raise GraphError("base component requires a non-empty type name")

    def _substitute_children(self, lhs: ExprLow, rhs: ExprLow) -> ExprLow:
        return self

    def rename_internals(self, mapping: Mapping[str, str]) -> "Base":
        def rename(port: Port) -> Port:
            if isinstance(port, InternalPort) and port.instance in mapping:
                return InternalPort(mapping[port.instance], port.wire)
            return port

        return Base(
            self.typ,
            PortMap({src: rename(dst) for src, dst in self.inputs.items()}),
            PortMap({src: rename(dst) for src, dst in self.outputs.items()}),
        )

    def _children(self) -> tuple[ExprLow, ...]:
        return ()

    def __str__(self) -> str:
        ins = ", ".join(f"{s}->{d}" for s, d in sorted(self.inputs.items(), key=str))
        outs = ", ".join(f"{s}->{d}" for s, d in sorted(self.outputs.items(), key=str))
        return f"[{self.typ} | in: {ins} | out: {outs}]"


@dataclass(frozen=True)
class Product(ExprLow):
    """The ⊗ constructor: two graphs side by side, ports disjoint."""

    left: ExprLow
    right: ExprLow

    def _substitute_children(self, lhs: ExprLow, rhs: ExprLow) -> ExprLow:
        return Product(self.left.substitute(lhs, rhs), self.right.substitute(lhs, rhs))

    def rename_internals(self, mapping: Mapping[str, str]) -> "Product":
        return Product(self.left.rename_internals(mapping), self.right.rename_internals(mapping))

    def _children(self) -> tuple[ExprLow, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} ⊗ {self.right})"


@dataclass(frozen=True)
class Connect(ExprLow):
    """The connect constructor: joins output *output* to input *input*."""

    output: Port
    input: Port
    expr: ExprLow

    def _substitute_children(self, lhs: ExprLow, rhs: ExprLow) -> ExprLow:
        return Connect(self.output, self.input, self.expr.substitute(lhs, rhs))

    def rename_internals(self, mapping: Mapping[str, str]) -> "Connect":
        def rename(port: Port) -> Port:
            if isinstance(port, InternalPort) and port.instance in mapping:
                return InternalPort(mapping[port.instance], port.wire)
            return port

        return Connect(rename(self.output), rename(self.input), self.expr.rename_internals(mapping))

    def _children(self) -> tuple[ExprLow, ...]:
        return (self.expr,)

    def __str__(self) -> str:
        return f"connect({self.output} ⇝ {self.input}, {self.expr})"


def _dangling(expr: ExprLow, outputs: bool) -> frozenset[Port]:
    """The dangling input (or output) ports of *expr*, bottom-up.

    Evaluates children before parents, left before right, so the first
    violated check — a product whose sides share a port, or a connect
    closing a port that is not dangling — is the one a structural recursion
    would report.  Each intermediate set is consumed once, so sets are
    updated in place and the whole pass is linear in the term's size.
    """
    kind = "output" if outputs else "input"
    done: list[set[Port]] = []
    stack: list[tuple[ExprLow, bool]] = [(expr, False)]
    while stack:
        node, ready = stack.pop()
        if isinstance(node, Base):
            done.append(set((node.outputs if outputs else node.inputs).targets()))
        elif not ready:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node._children()))
        elif isinstance(node, Product):
            right = done.pop()
            left = done.pop()
            if not left.isdisjoint(right):
                overlap = left & right
                raise GraphError(f"product {kind} ports overlap: {sorted(map(str, overlap))}")
            if len(left) < len(right):
                left, right = right, left
            left |= right
            done.append(left)
        elif isinstance(node, Connect):
            port = node.output if outputs else node.input
            inner = done[-1]
            if port not in inner:
                raise GraphError(f"connect {kind} {port} is not a dangling {kind}")
            inner.discard(port)
        else:
            raise GraphError(f"cannot compute dangling ports of {type(node).__name__}")
    return frozenset(done[0])


def product_fold(exprs: Sequence[ExprLow]) -> ExprLow:
    """Right-fold a non-empty sequence of expressions into a Product chain.

    The fold order is canonical: ``product_fold([a, b, c])`` always yields
    ``a ⊗ (b ⊗ c)``.  Both the lowering from ExprHigh and the construction of
    rewrite left-hand sides use this function, so syntactic matching of the
    rewriting function succeeds whenever the base components agree.
    """
    if not exprs:
        raise GraphError("cannot fold an empty sequence of expressions")
    result = exprs[-1]
    for expr in reversed(exprs[:-1]):
        result = Product(expr, result)
    return result


def build(bases: Sequence[Base], connections: Sequence[tuple[Port, Port]]) -> ExprLow:
    """Build the canonical expression: connects wrapped around a product fold.

    Connections are applied outermost-last in the given order, so
    ``build(bs, [c1, c2])`` is ``connect(c2, connect(c1, fold(bs)))``.
    """
    expr: ExprLow = product_fold(bases)
    for output, input_ in connections:
        expr = Connect(output, input_, expr)
    return expr


def check_well_formed(expr: ExprLow) -> None:
    """Validate structural invariants; raises :class:`GraphError` otherwise.

    Checks that products do not overlap ports and every connect closes ports
    that are actually dangling at that point (both checks are performed by
    the dangling-port computations).
    """
    expr.dangling_inputs()
    expr.dangling_outputs()


def isolate(
    expr: ExprLow,
    selected: Callable[[Base], bool],
) -> tuple[ExprLow, ExprLow, list[tuple[Port, Port]], list[Base]]:
    """Reassociate *expr* so the selected bases form one canonical subterm.

    This implements the "moving base components over products and
    connections" step of section 4.2: given a predicate choosing a set of
    base components, return ``(subterm, remainder_expr, crossing, rest)``
    where *subterm* is ``build(selected bases, internal connections)``, the
    internal connections being those whose both endpoints belong to selected
    bases.  The caller reconstructs the full graph as::

        build_around(subterm', rest, crossing)

    with ``subterm'`` either the isolated subterm (an equivalent expression
    to *expr*) or a replacement for it.  Equivalence of the reassociation is
    checked by the refinement test-suite rather than proved, mirroring the
    paper's strategy of proving these movements once and for all.
    """
    all_bases = list(expr.bases())
    chosen = [b for b in all_bases if selected(b)]
    rest = [b for b in all_bases if not selected(b)]
    if not chosen:
        raise GraphError("isolate: no base component selected")

    owned_inputs: frozenset[Port] = frozenset().union(*(b.inputs.targets() for b in chosen))
    owned_outputs: frozenset[Port] = frozenset().union(*(b.outputs.targets() for b in chosen))

    internal: list[tuple[Port, Port]] = []
    crossing: list[tuple[Port, Port]] = []
    for output, input_ in expr.connections():
        if output in owned_outputs and input_ in owned_inputs:
            internal.append((output, input_))
        else:
            crossing.append((output, input_))

    subterm = build(chosen, internal)
    return subterm, product_fold(rest) if rest else subterm, crossing, rest


def build_around(
    subterm: ExprLow,
    rest: Sequence[Base],
    crossing: Sequence[tuple[Port, Port]],
) -> ExprLow:
    """Reassemble a full expression around an (isolated or replaced) subterm."""
    expr: ExprLow = Product(subterm, product_fold(list(rest))) if rest else subterm
    for output, input_ in crossing:
        expr = Connect(output, input_, expr)
    return expr


def rename_ports(
    expr: ExprLow,
    in_mapping: Mapping[Port, Port],
    out_mapping: Mapping[Port, Port],
) -> ExprLow:
    """Rename individual ports throughout an expression, direction-aware.

    Input-side occurrences (base input maps, connect inputs) use
    *in_mapping*; output-side occurrences use *out_mapping*.  The two maps
    are separate because input and output port names live in distinct
    namespaces — a graph may use ``io:0`` both as an input and an output.
    Used by the rewrite application to stitch a replacement subterm's
    interface ports onto the names the surrounding graph already uses.
    """
    done: list[ExprLow] = []
    stack: list[tuple[ExprLow, bool]] = [(expr, False)]
    while stack:
        node, ready = stack.pop()
        if isinstance(node, Base):
            done.append(
                Base(
                    node.typ,
                    PortMap({src: in_mapping.get(dst, dst) for src, dst in node.inputs.items()}),
                    PortMap({src: out_mapping.get(dst, dst) for src, dst in node.outputs.items()}),
                )
            )
        elif not isinstance(node, (Product, Connect)):
            raise GraphError(f"cannot rename ports in {type(node).__name__}")
        elif not ready:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node._children()))
        elif isinstance(node, Product):
            right = done.pop()
            done.append(Product(done.pop(), right))
        else:
            done.append(
                Connect(
                    out_mapping.get(node.output, node.output),
                    in_mapping.get(node.input, node.input),
                    done.pop(),
                )
            )
    return done[0]
