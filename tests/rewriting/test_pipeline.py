"""Tests for the five-phase Graphiti pipeline on compiled kernels."""

from collections import Counter

import numpy as np
import pytest

from repro.components import default_environment, init, source
from repro.core.typecheck import typecheck
from repro.errors import TypeCheckError
from repro.hls.frontend import compile_program
from repro.hls.ir import BinOp, DoWhile, Kernel, Load, OuterLoop, Program, StoreOp, UnOp, Var
from repro.rewriting.pipeline import GraphitiPipeline, remove_identity_wires
from repro.rewriting.purify import PurityError, compose_region, discover_region


def gcd_program(n=4):
    loop = DoWhile(
        "gcd",
        ("a", "b", "i"),
        {"a": Var("b"), "b": BinOp("mod", Var("a"), Var("b")), "i": Var("i")},
        UnOp("ne0", Var("b")),
        ("a", "i"),
    )
    kernel = Kernel(
        "gcd",
        loop,
        (OuterLoop("i", n),),
        {"a": Load("arr1", Var("i")), "b": Load("arr2", Var("i")), "i": Var("i")},
        (StoreOp("result", Var("i"), Var("a")),),
        tags=4,
    )
    return Program(
        "gcd",
        {
            "arr1": np.array([12, 18, 7, 100], dtype=np.int64),
            "arr2": np.array([8, 27, 13, 75], dtype=np.int64),
            "result": np.zeros(n, dtype=np.int64),
        },
        [kernel],
    )


def make_phase5_ill_typed(monkeypatch):
    """Make phase 5 add a stray Source feeding an Init: unit into bool."""
    expand = GraphitiPipeline._expand_body

    def ill_typed_expand(self, graph, saved_body):
        graph = expand(self, graph, saved_body)
        graph.add_node("stray_source", source())
        graph.add_node("stray_init", init())
        graph.connect("stray_source", "out0", "stray_init", "in0")
        return graph

    monkeypatch.setattr(GraphitiPipeline, "_expand_body", ill_typed_expand)


@pytest.fixture
def compiled_gcd():
    env = default_environment()
    program = gcd_program()
    compiled = compile_program(program, env)
    return env, compiled.kernels[0]


class TestFullPipeline:
    def test_transforms_gcd_loop(self, compiled_gcd):
        env, ck = compiled_gcd
        result = GraphitiPipeline(env).transform_kernel(ck.graph, ck.mark)
        assert result.transformed
        assert result.refusal is None
        types = Counter(spec.typ for spec in result.graph.nodes.values())
        assert types["Mux"] == 0
        assert types["Init"] == 0
        assert types["Merge"] == 1
        assert types["Tagger"] == 1
        assert types["Branch"] == 1
        result.graph.validate()

    def test_tagger_carries_requested_tags(self, compiled_gcd):
        env, ck = compiled_gcd
        result = GraphitiPipeline(env).transform_kernel(ck.graph, ck.mark)
        taggers = [s for s in result.graph.nodes.values() if s.typ == "Tagger"]
        assert taggers[0].param("tags") == ck.mark.tags

    def test_body_expanded_in_tagged_form(self, compiled_gcd):
        env, ck = compiled_gcd
        result = GraphitiPipeline(env).transform_kernel(ck.graph, ck.mark)
        tagged_ops = [
            name
            for name, spec in result.graph.nodes.items()
            if spec.typ == "Operator" and spec.param("tagged")
        ]
        assert len(tagged_ops) == 2  # the mod and the ne0 of the GCD body

    def test_statistics_recorded(self, compiled_gcd):
        env, ck = compiled_gcd
        result = GraphitiPipeline(env).transform_kernel(ck.graph, ck.mark)
        assert result.rewrites_applied > 5
        assert result.composition_steps > 0
        assert result.total_steps == result.rewrites_applied + result.composition_steps

    def test_verified_core_with_unverified_minors(self, compiled_gcd):
        """Like the paper: the loop rewrite is verified, some cleanup is not."""
        env, ck = compiled_gcd
        pipeline = GraphitiPipeline(env)
        pipeline.transform_kernel(ck.graph, ck.mark)
        names = {a.rewrite: a.verified for a in pipeline.engine.log}
        assert names["ooo-loop"] is True
        assert names["mux-combine"] is True
        assert names["purify-body"] is False  # checked selectively, not by default


class TestCheckedPipeline:
    def test_pipeline_output_is_well_typed(self, compiled_gcd):
        """Every transformed graph passes the section 6.3 well-typedness
        deduction (tags wrap consistently everywhere)."""
        env, ck = compiled_gcd
        result = GraphitiPipeline(env).transform_kernel(ck.graph, ck.mark)
        assert result.transformed
        typecheck(result.graph)

    def test_ill_typed_output_is_rejected(self, compiled_gcd, monkeypatch):
        """A phase-5 output with an ill-typed connection never leaves the
        pipeline: the section 6.3 check runs on every transform."""
        env, ck = compiled_gcd
        make_phase5_ill_typed(monkeypatch)
        with pytest.raises(TypeCheckError, match="stray_source"):
            GraphitiPipeline(env).transform_kernel(ck.graph, ck.mark)


class TestEffectfulRefusal:
    def test_store_in_body_is_refused(self):
        env = default_environment()
        loop = DoWhile(
            "acc",
            ("s", "j"),
            {"s": BinOp("add", Var("s"), Var("j")), "j": BinOp("add", Var("j"), Var("j"))},
            UnOp("ne0", Var("j")),
            ("s",),
            stores=(StoreOp("out", Var("j"), Var("s")),),
        )
        kernel = Kernel(
            "acc",
            loop,
            (OuterLoop("i", 2),),
            {"s": Load("data", Var("i")), "j": Load("data", Var("i"))},
            tags=2,
        )
        program = Program("acc", {"data": np.array([1, 2]), "out": np.zeros(4)}, [kernel])
        compiled = compile_program(program, env)
        ck = compiled.kernels[0]
        result = GraphitiPipeline(env).transform_kernel(ck.graph, ck.mark)
        assert not result.transformed
        assert "stores" in result.refusal
        # The refused graph is the input, untouched.
        assert result.graph is ck.graph


class TestIdentityWireRemoval:
    def test_removes_id_pures(self):
        from repro.components import pure
        from repro.core.exprhigh import ExprHigh

        g = ExprHigh()
        g.add_node("a", pure("incr"))
        g.add_node("w", pure("id"))
        g.add_node("b", pure("incr"))
        g.connect("a", "out0", "w", "in0")
        g.connect("w", "out0", "b", "in0")
        g.mark_input(0, "a", "in0")
        g.mark_output(0, "b", "out0")
        cleaned = remove_identity_wires(g)
        assert "w" not in cleaned.nodes
        assert cleaned.source_of("b", "in0").node == "a"

    def test_keeps_tagged_id(self):
        from repro.core.exprhigh import ExprHigh, NodeSpec

        g = ExprHigh()
        g.add_node("a", NodeSpec.make("Pure", ["in0"], ["out0"], {"fn": "incr"}))
        g.add_node("w", NodeSpec.make("Pure", ["in0"], ["out0"], {"fn": "id", "tagged": True}))
        g.connect("a", "out0", "w", "in0")
        g.mark_input(0, "a", "in0")
        g.mark_output(0, "w", "out0")
        cleaned = remove_identity_wires(g)
        assert "w" in cleaned.nodes

    def test_keeps_boundary_id(self):
        from repro.components import pure
        from repro.core.exprhigh import ExprHigh

        g = ExprHigh()
        g.add_node("w", pure("id"))
        g.mark_input(0, "w", "in0")
        g.mark_output(0, "w", "out0")
        cleaned = remove_identity_wires(g)
        assert "w" in cleaned.nodes  # nothing to fuse through


class TestPurifier:
    def test_gcd_region_composes_to_working_function(self, compiled_gcd):
        env, ck = compiled_gcd
        pipeline = GraphitiPipeline(env)
        result = pipeline.transform_kernel(ck.graph, ck.mark)
        assert result.transformed
        # The composed function must implement one GCD step on the nested
        # loop value. The loop state after combining is ((a, b), i).
        pure_fns = [
            str(spec.param("fn"))
            for spec in result.graph.nodes.values()
            if spec.typ == "Pure" and spec.param("tagged")
        ]
        # After expansion the body is expanded back; the composed function
        # only lives in the engine log. Re-derive it through the purifier on
        # a fresh pipeline run instead:
        env2 = default_environment()
        from repro.hls.frontend import compile_program

        compiled = compile_program(gcd_program(), env2)
        ck2 = compiled.kernels[0]
        from repro.rewriting.engine import RewriteEngine
        from repro.rewriting.rules import combine, reduction
        from repro.rewriting.pipeline import remove_identity_wires

        engine = RewriteEngine()
        g = engine.apply_exhaustively(
            ck2.graph, [combine.mux_combine(), combine.branch_combine()]
        )
        while True:
            before = len(engine.log)
            g = engine.apply_exhaustively(
                g,
                [reduction.split_join_elim(), reduction.fork_sink_elim(), reduction.pure_id_elim()],
            )
            nodes_before = len(g.nodes)
            g = remove_identity_wires(g)
            if len(engine.log) == before and len(g.nodes) == nodes_before:
                break
        mux = [n for n, s in g.nodes.items() if s.typ == "Mux"][0]
        branch = [n for n, s in g.nodes.items() if s.typ == "Branch"][0]
        init_node = [n for n, s in g.nodes.items() if s.typ == "Init"][0]
        cond_fork = g.source_of(init_node, "in0").node
        region = discover_region(g, mux, branch, cond_fork)
        term, steps = compose_region(g, region, env2)
        fn = env2.function(term)
        # One GCD step on ((a, b), i): new value ((b, a mod b), i), continue
        # while the new remainder is non-zero.
        value, cond = fn(((12, 8), 0))
        assert value == ((8, 4), 0)
        assert cond is True
        value, cond = fn(((8, 4), 0))
        assert value == ((4, 0), 0)
        assert cond is False

    def test_effectful_region_raises(self):
        from repro.components import store
        from repro.core.exprhigh import ExprHigh
        from repro.rewriting.purify import Region, check_region_pure

        g = ExprHigh()
        g.add_node("st", store())
        with pytest.raises(PurityError):
            check_region_pure(g, Region(["st"], None, None, None))
