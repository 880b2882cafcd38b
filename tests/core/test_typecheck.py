"""Tests for well-typed graph deduction (section 6.3)."""

import pytest

from repro.components import branch, fork, init, join, merge, mux, pure, split, tagger
from repro.core.exprhigh import Endpoint, ExprHigh
from repro.core.typecheck import _unify_into, typecheck
from repro.core.types import BOOL, I32, TaggedType, TupleType, TypeVar
from repro.errors import TypeCheckError


def sequential_loop():
    from repro.rewriting.rules.common import instantiate
    from repro.rewriting.rules.loop_rewrite import sequential_loop_lhs

    return instantiate(sequential_loop_lhs(), {"F": "gcd_step"})


class TestDeduction:
    def test_fork_propagates_one_type(self):
        g = ExprHigh()
        g.add_node("f", fork(2))
        g.mark_input(0, "f", "in0")
        g.mark_output(0, "f", "out0")
        g.mark_output(1, "f", "out1")
        types = typecheck(g, {0: I32}, require_concrete=True)
        assert types[Endpoint("f", "out0")] == I32
        assert types[Endpoint("f", "out1")] == I32

    def test_join_builds_tuples(self):
        g = ExprHigh()
        g.add_node("j", join())
        g.add_node("s", split())
        g.connect("j", "out0", "s", "in0")
        g.mark_input(0, "j", "in0")
        g.mark_input(1, "j", "in1")
        g.mark_output(0, "s", "out0")
        g.mark_output(1, "s", "out1")
        types = typecheck(g, {0: I32, 1: BOOL}, require_concrete=True)
        assert types[Endpoint("j", "out0")] == TupleType(I32, BOOL)
        assert types[Endpoint("s", "out0")] == I32
        assert types[Endpoint("s", "out1")] == BOOL

    def test_mux_condition_is_bool(self):
        g = ExprHigh()
        g.add_node("m", mux())
        for i, p in enumerate(["cond", "in0", "in1"]):
            g.mark_input(i, "m", p)
        g.mark_output(0, "m", "out0")
        types = typecheck(g, {1: I32})
        assert types[Endpoint("m", "cond")] == BOOL
        assert types[Endpoint("m", "in1")] == I32  # unified with in0

    def test_tagger_wraps_and_unwraps(self):
        g = ExprHigh()
        g.add_node("t", tagger(tags=4))
        g.mark_input(0, "t", "in0")
        g.mark_input(1, "t", "in1")
        g.mark_output(0, "t", "out0")
        g.mark_output(1, "t", "out1")
        types = typecheck(g, {0: I32})
        assert types[Endpoint("t", "out0")] == TaggedType(I32)

    def test_loop_rewrite_lhs_types_deduce(self):
        g = sequential_loop()
        types = typecheck(g, {0: TupleType(I32, I32)})
        # The Split separates the body's (T, bool) result.
        split_nodes = [n for n, s in g.nodes.items() if s.typ == "Split"]
        (sp,) = split_nodes
        assert types[Endpoint(sp, "out1")] == BOOL

    def test_polymorphic_without_inputs(self):
        g = ExprHigh()
        g.add_node("f", fork(2))
        g.mark_input(0, "f", "in0")
        g.mark_output(0, "f", "out0")
        g.mark_output(1, "f", "out1")
        types = typecheck(g)
        assert isinstance(types[Endpoint("f", "out0")], TypeVar)


class TestErrors:
    def test_type_clash_reported(self):
        g = ExprHigh()
        g.add_node("i", init(value=False))  # bool in, bool out
        g.add_node("j", join())
        g.add_node("s", split())
        g.connect("j", "out0", "s", "in0")
        g.connect("s", "out0", "i", "in0")  # fine: left half must be bool
        g.mark_input(0, "j", "in0")
        g.mark_input(1, "j", "in1")
        g.mark_output(0, "i", "out0")
        g.mark_output(1, "s", "out1")
        with pytest.raises(TypeCheckError):
            typecheck(g, {0: I32})  # clashes with Init's bool input

    def test_require_concrete_rejects_loose_ports(self):
        g = ExprHigh()
        g.add_node("m", merge())
        g.mark_input(0, "m", "in0")
        g.mark_input(1, "m", "in1")
        g.mark_output(0, "m", "out0")
        with pytest.raises(TypeCheckError):
            typecheck(g, require_concrete=True)

    def test_unknown_input_index_rejected(self):
        g = ExprHigh()
        g.add_node("b", branch())
        g.mark_input(0, "b", "cond")
        g.mark_input(1, "b", "in0")
        g.mark_output(0, "b", "out0")
        g.mark_output(1, "b", "out1")
        with pytest.raises(TypeCheckError):
            typecheck(g, {7: I32})

    def test_unknown_component_rejected(self):
        from repro.core.exprhigh import NodeSpec

        g = ExprHigh()
        g.add_node("x", NodeSpec.make("Alien", ["in0"], ["out0"]))
        g.mark_input(0, "x", "in0")
        g.mark_output(0, "x", "out0")
        with pytest.raises(TypeCheckError):
            typecheck(g)


class TestWholePipelineGraphs:
    def test_compiled_kernel_typechecks(self):
        import numpy as np

        from repro.components import default_environment
        from repro.hls.frontend import compile_program
        from repro.hls.ir import BinOp, Const, DoWhile, Kernel, OuterLoop, Program, StoreOp, Var

        loop = DoWhile(
            "count",
            ("n", "i"),
            {"n": BinOp("sub", Var("n"), Const(1)), "i": Var("i")},
            BinOp("lt", Const(0), Var("n")),
            ("n", "i"),
        )
        kernel = Kernel(
            "count",
            loop,
            (OuterLoop("i", 2),),
            {"n": Const(3), "i": Var("i")},
            (StoreOp("out", Var("i"), Var("n")),),
        )
        program = Program("count", {"out": np.zeros(2)}, [kernel])
        compiled = compile_program(program, default_environment())
        types = typecheck(compiled.kernels[0].graph)
        assert types  # deduction succeeds on the full DF-IO circuit


class TestUnify:
    """The unifier behind :func:`typecheck`, one equation at a time."""

    @staticmethod
    def unify(left, right, subst=None):
        subst = {} if subst is None else subst
        _unify_into(left, right, subst, "here")
        return subst

    def test_var_binds_to_concrete(self):
        assert self.unify(TypeVar("T"), I32) == {"T": I32}

    def test_var_binds_on_either_side(self):
        assert self.unify(I32, TypeVar("T")) == {"T": I32}

    def test_consistent_rebinding_allowed(self):
        pattern = TupleType(TypeVar("T"), TypeVar("T"))
        assert self.unify(pattern, TupleType(I32, I32)) == {"T": I32}

    def test_inconsistent_binding_rejected(self):
        pattern = TupleType(TypeVar("T"), TypeVar("T"))
        with pytest.raises(TypeCheckError, match="here: cannot unify"):
            self.unify(pattern, TupleType(I32, BOOL))

    def test_structural_mismatch_rejected(self):
        with pytest.raises(TypeCheckError):
            self.unify(I32, BOOL)

    def test_tagged_structure(self):
        assert self.unify(TaggedType(TypeVar("T")), TaggedType(BOOL)) == {"T": BOOL}

    def test_tag_width_mismatch_rejected(self):
        with pytest.raises(TypeCheckError, match="tag width"):
            self.unify(TaggedType(TypeVar("T"), tag_bits=4), TaggedType(BOOL, tag_bits=8))

    def test_occurs_check(self):
        with pytest.raises(TypeCheckError, match="occurs check"):
            self.unify(TypeVar("T"), TupleType(TypeVar("T"), I32))
