"""Tests for the ExprLow inductive graph language."""

import pytest

from repro.core.exprlow import (
    Base,
    Connect,
    Product,
    build,
    build_around,
    check_well_formed,
    isolate,
    product_fold,
    rename_ports,
)
from repro.core.ports import InternalPort, IOPort, PortMap, sequential_map
from repro.errors import GraphError


def base(name, typ="Fork", n_in=1, n_out=2):
    return Base(
        typ,
        sequential_map(name, [f"in{i}" for i in range(n_in)]),
        sequential_map(name, [f"out{i}" for i in range(n_out)]),
    )


class TestDanglingPorts:
    def test_base_exposes_its_ports(self):
        b = base("f")
        assert b.dangling_inputs() == frozenset({InternalPort("f", "in0")})
        assert b.dangling_outputs() == frozenset(
            {InternalPort("f", "out0"), InternalPort("f", "out1")}
        )

    def test_product_unions_ports(self):
        expr = Product(base("a"), base("b"))
        assert InternalPort("a", "in0") in expr.dangling_inputs()
        assert InternalPort("b", "in0") in expr.dangling_inputs()

    def test_product_overlap_rejected(self):
        expr = Product(base("a"), base("a"))
        with pytest.raises(GraphError):
            expr.dangling_inputs()

    def test_connect_removes_ports(self):
        expr = Connect(
            InternalPort("a", "out0"),
            InternalPort("b", "in0"),
            Product(base("a"), base("b")),
        )
        assert InternalPort("a", "out0") not in expr.dangling_outputs()
        assert InternalPort("b", "in0") not in expr.dangling_inputs()

    def test_connect_to_missing_port_rejected(self):
        expr = Connect(InternalPort("a", "nope"), InternalPort("b", "in0"), Product(base("a"), base("b")))
        with pytest.raises(GraphError):
            check_well_formed(expr)


class TestSubstitution:
    def test_exact_match_replaced(self):
        lhs = base("a")
        rhs = base("z", typ="Join")
        assert lhs.substitute(lhs, rhs) == rhs

    def test_match_inside_product(self):
        lhs = base("a")
        rhs = base("z")
        expr = Product(lhs, base("b"))
        assert expr.substitute(lhs, rhs) == Product(rhs, base("b"))

    def test_match_inside_connect(self):
        lhs = base("a")
        rhs = base("z")
        expr = Connect(InternalPort("a", "out0"), InternalPort("b", "in0"), Product(lhs, base("b")))
        result = expr.substitute(lhs, rhs)
        assert isinstance(result, Connect)
        assert result.expr == Product(rhs, base("b"))

    def test_no_match_returns_same_structure(self):
        expr = Product(base("a"), base("b"))
        assert expr.substitute(base("q"), base("z")) == expr

    def test_subterm_product_match(self):
        sub = Product(base("a"), base("b"))
        expr = Product(sub, base("c"))
        replacement = base("z")
        assert expr.substitute(sub, replacement) == Product(replacement, base("c"))


class TestFoldAndBuild:
    def test_fold_is_right_associated(self):
        a, b, c = base("a"), base("b"), base("c")
        assert product_fold([a, b, c]) == Product(a, Product(b, c))

    def test_fold_single_element(self):
        assert product_fold([base("a")]) == base("a")

    def test_fold_empty_rejected(self):
        with pytest.raises(GraphError):
            product_fold([])

    def test_build_applies_connections_in_order(self):
        a, b = base("a"), base("b")
        conn = (InternalPort("a", "out0"), InternalPort("b", "in0"))
        expr = build([a, b], [conn])
        assert isinstance(expr, Connect)
        assert list(expr.connections()) == [conn]

    def test_size_counts_bases(self):
        expr = build([base("a"), base("b"), base("c")], [])
        assert expr.size() == 3


class TestIsolate:
    def _graph(self):
        a, b, c = base("a"), base("b"), base("c", n_in=2, n_out=1)
        conns = [
            (InternalPort("a", "out0"), InternalPort("b", "in0")),
            (InternalPort("a", "out1"), InternalPort("c", "in0")),
            (InternalPort("b", "out0"), InternalPort("c", "in1")),
        ]
        return build([a, b, c], conns)

    def test_isolated_subterm_contains_internal_connections(self):
        expr = self._graph()
        sub, _, crossing, rest = isolate(expr, lambda b: b.inputs.targets() & {
            InternalPort("a", "in0"), InternalPort("b", "in0")})
        assert sub.size() == 2
        assert len(list(sub.connections())) == 1
        assert len(crossing) == 2
        assert len(rest) == 1

    def test_rebuild_preserves_components_and_connections(self):
        expr = self._graph()
        selected = lambda b: InternalPort("a", "in0") in b.inputs.targets()
        sub, _, crossing, rest = isolate(expr, selected)
        rebuilt = build_around(sub, rest, crossing)
        assert sorted(b.typ for b in rebuilt.bases()) == sorted(b.typ for b in expr.bases())
        assert set(rebuilt.connections()) == set(expr.connections())
        check_well_formed(rebuilt)

    def test_no_selection_rejected(self):
        with pytest.raises(GraphError):
            isolate(self._graph(), lambda b: False)


class TestNames:
    def test_rename_internals(self):
        expr = Connect(
            InternalPort("a", "out0"),
            InternalPort("b", "in0"),
            Product(base("a"), base("b")),
        )
        renamed = expr.rename_internals({"a": "alpha"})
        assert {port.instance for pair in renamed.connections() for port in pair} == {
            "alpha",
            "b",
        }
        assert (InternalPort("alpha", "out0"), InternalPort("b", "in0")) in set(
            renamed.connections()
        )

    def test_contains(self):
        inner = base("a")
        expr = Product(inner, base("b"))
        assert expr.contains(inner)
        assert not expr.contains(base("q"))


def chain_term(length):
    """A lowered chain of *length* buffers: a product fold and a connect
    chain each as deep as the chain is long."""
    bases = [base(f"b{i}", typ="Buffer", n_out=1) for i in range(length)]
    conns = [
        (InternalPort(f"b{i}", "out0"), InternalPort(f"b{i + 1}", "in0")) for i in range(length - 1)
    ]
    return bases, conns, build(bases, conns)


class TestDeepTerms:
    """The whole-term traversals are iterative: a term far deeper than the
    recursion limit keeps the order and the errors of the structural
    definitions."""

    LENGTH = 3000

    def test_bases_and_connections_keep_their_order(self):
        bases, conns, expr = chain_term(self.LENGTH)
        assert list(expr.bases()) == bases
        assert list(expr.connections()) == conns[::-1]  # outermost connect first
        assert expr.size() == self.LENGTH

    def test_dangling_ports_of_a_deep_term(self):
        _, _, expr = chain_term(self.LENGTH)
        check_well_formed(expr)
        assert expr.dangling_inputs() == frozenset({InternalPort("b0", "in0")})
        assert expr.dangling_outputs() == frozenset({InternalPort(f"b{self.LENGTH - 1}", "out0")})

    def test_innermost_violation_is_reported(self):
        bases, conns, _ = chain_term(self.LENGTH)
        bad = (InternalPort("b0", "out0"), InternalPort("ghost", "in0"))
        expr = build(bases, [bad] + conns)
        with pytest.raises(GraphError, match="connect input ghost.in0 is not a dangling input"):
            check_well_formed(expr)
        overlapping = Product(build(bases, conns), base("b0", typ="Buffer", n_out=1))
        with pytest.raises(GraphError, match=r"product input ports overlap: \['b0.in0'\]"):
            overlapping.dangling_inputs()

    def test_rename_ports_on_a_deep_term(self):
        bases, conns, expr = chain_term(self.LENGTH)
        last = InternalPort(f"b{self.LENGTH - 1}", "out0")
        renamed = rename_ports(expr, {InternalPort("b0", "in0"): IOPort(0)}, {last: IOPort(0)})
        assert renamed.dangling_inputs() == frozenset({IOPort(0)})
        assert renamed.dangling_outputs() == frozenset({IOPort(0)})
        assert list(renamed.connections()) == conns[::-1]
        assert [b.typ for b in renamed.bases()] == [b.typ for b in bases]
