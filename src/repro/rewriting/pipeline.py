"""The five-phase Graphiti transformation pipeline (section 3.1).

Given a compiled kernel and its loop mark (the oracle information), the
pipeline applies:

1. **Normalize** — exhaustively combine Muxes and Branches sharing forked
   conditions (fig. 3a).
2. **Eliminate** — exhaustively cancel Split/Join pairs and sunk Forks
   introduced by phase 1 (fig. 3b), then drop identity wires.
3. **Purify** — compose the loop body into a single Pure component (fig. 5,
   section 3.2); the e-graph oracle's term becomes the Pure's ``fn`` and
   its rule count joins ``composition_steps``.  *Refuses effectful bodies*,
   which is what catches the bicg bug of section 6.2.
4. **Reorder** — apply the main out-of-order loop rewrite (fig. 3d).
5. **Expand** — splice the saved body back in tagged form, undoing the
   Pure generation (the oracle's term is replaced, never simulated).

Every transformed graph is then type-checked (section 6.3).

The engine log records which applications were of rewrites marked
verified (their obligations are discharged by ``repro refine``, apart from
any transform), mirroring the paper's verified-core/unverified-minor split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs
from ..core.environment import Environment
from ..core.exprhigh import Endpoint, ExprHigh, NodeSpec
from ..core.typecheck import typecheck
from ..errors import GraphitiError, RewriteError
from .engine import RewriteEngine
from .purify import PurityError, discover_region, purify_rewrite
from .rewrite import Match, Rewrite
from .rules import combine, loop_rewrite, reduction
from ..components import split as split_spec


@dataclass
class TransformResult:
    """Outcome of running the pipeline on one kernel graph."""

    graph: ExprHigh
    transformed: bool
    refusal: str | None = None
    rewrites_applied: int = 0
    composition_steps: int = 0
    verified_applications: int = 0

    @property
    def total_steps(self) -> int:
        return self.rewrites_applied + self.composition_steps

    # -- result protocol / wire format (repro.results) -----------------------

    def to_dict(self) -> dict:
        """Versioned wire form: the full graph travels as canonical dot text.

        ``graph_dot`` makes the dict a complete round-trippable record —
        :meth:`from_dict` rebuilds the circuit — which is what lets the
        verification service return transform results over HTTP.
        """
        from ..dot import print_dot
        from ..results import SCHEMA_VERSION

        return {
            "kind": "TransformResult",
            "schema_version": SCHEMA_VERSION,
            "transformed": bool(self.transformed),
            "refusal": self.refusal,
            "rewrites_applied": int(self.rewrites_applied),
            "composition_steps": int(self.composition_steps),
            "verified_applications": int(self.verified_applications),
            "nodes": len(self.graph.nodes),
            "graph_dot": print_dot(self.graph),
        }

    @staticmethod
    def from_dict(data: dict) -> "TransformResult":
        """Rebuild a result (graph included) from its wire dict.

        Raises :class:`~repro.errors.ResultSchemaError` on a missing or
        unknown ``schema_version`` or the wrong ``kind``.  Schema 1 dicts
        read when their ``strategy`` is ``"fixpoint"`` (the other keys of
        that era are ignored); any other strategy's ``graph_dot`` was a
        pick from a frontier this reader cannot describe, so it raises.
        """
        from ..dot import parse_dot
        from ..errors import ResultSchemaError
        from ..results import check_schema

        entry = check_schema(data, "TransformResult")
        strategy = entry.get("strategy", "fixpoint")
        if strategy != "fixpoint":
            raise ResultSchemaError(
                f"TransformResult with strategy {strategy!r} is no longer "
                "readable; only fixpoint results are"
            )
        try:
            graph = parse_dot(entry["graph_dot"])
            return TransformResult(
                graph=graph,
                transformed=bool(entry["transformed"]),
                refusal=entry.get("refusal"),
                rewrites_applied=int(entry["rewrites_applied"]),
                composition_steps=int(entry["composition_steps"]),
                verified_applications=int(entry["verified_applications"]),
            )
        except (KeyError, TypeError, ValueError, GraphitiError) as exc:
            if isinstance(exc, ResultSchemaError):
                raise
            raise ResultSchemaError(
                f"malformed TransformResult wire dict: {exc}"
            ) from exc

    def summary(self) -> str:
        if not self.transformed:
            return f"refused: {self.refusal}"
        return (
            f"applied {self.rewrites_applied} rewrites "
            f"(+{self.composition_steps} composition steps), "
            f"{self.verified_applications} verified applications"
        )


@dataclass
class GraphitiPipeline:
    """Drives the verified rewriting flow of figure 1 over kernel graphs.

    Every transformed graph must be well-typed in the section 6.3 sense
    (every connection joins ports of one deducible type), or the transform
    raises :class:`~repro.errors.TypeCheckError`.
    """

    env: Environment
    engine: RewriteEngine = field(init=False, default_factory=RewriteEngine)

    # -- public API ---------------------------------------------------------

    def transform_kernel(self, graph: ExprHigh, mark) -> TransformResult:
        """Make the marked loop out-of-order; refuse when unsound."""
        if mark.effectful:
            obs.count("pipeline.refusals")
            return TransformResult(
                graph=graph,
                transformed=False,
                refusal=(
                    "loop body performs stores; reordering iterations would "
                    "permute the memory write order (the bicg case)"
                ),
            )
        with obs.span("pipeline:transform", kernel=mark.kernel, nodes=len(graph.nodes)) as root:
            working = graph.copy()
            start_count = len(self.engine.log)

            # Phase 1: combine steering.
            with obs.span("phase:normalize"):
                working = self.engine.apply_exhaustively(
                    working, [combine.mux_combine(), combine.branch_combine()]
                )
            # Phase 2: eliminate leftovers.  Identity-wire removal exposes new
            # Split/Join adjacencies, so the two interleave to a fixpoint.
            cleanup = [
                reduction.split_join_elim(),
                reduction.fork_sink_elim(),
                reduction.pure_id_elim(),
            ]
            with obs.span("phase:eliminate"):
                while True:
                    applied_before = len(self.engine.log)
                    working = self.engine.apply_exhaustively(working, cleanup)
                    nodes_before = len(working.nodes)
                    working = remove_identity_wires(working)
                    if (
                        len(self.engine.log) == applied_before
                        and len(working.nodes) == nodes_before
                    ):
                        break

            # Phase 3: purify the loop body.
            with obs.span("phase:purify") as purify_span:
                mux = _single_node(working, "Mux")
                branch = _single_node(working, "Branch")
                init_node = _single_node(working, "Init")
                cond_fork_src = working.source_of(init_node, "in0")
                if cond_fork_src is None:
                    raise RewriteError("loop Init is not fed by a condition fork")
                cond_fork = cond_fork_src.node
                try:
                    region = discover_region(working, mux, branch, cond_fork)
                    rewrite, match, steps = purify_rewrite(working, region, self.env)
                except PurityError as exc:
                    obs.count("pipeline.refusals")
                    purify_span.set(refused=True)
                    return TransformResult(graph=graph, transformed=False, refusal=str(exc))
                purify_span.set(composition_steps=steps)
                saved_body = rewrite.lhs  # the region subgraph, kept for phase 5
                working = self.engine.apply_at(working, rewrite, match)

            # Phase 4: the main out-of-order rewrite.
            with obs.span("phase:reorder"):
                ooo = loop_rewrite.ooo_loop(tags=mark.tags)
                transformed = self.engine.apply_once(working, ooo)
                if transformed is None:
                    raise RewriteError("normalized loop did not match the ooo-loop pattern")
                working = transformed

            # Phase 5: expand the Pure body back into tagged components.
            with obs.span("phase:expand"):
                working = self._expand_body(working, saved_body)

            typecheck(working)

            applied = len(self.engine.log) - start_count
            verified = sum(1 for a in self.engine.log[start_count:] if a.verified)
            obs.count("pipeline.transforms")
            root.set(rewrites_applied=applied)
            return TransformResult(
                graph=working,
                transformed=True,
                rewrites_applied=applied,
                composition_steps=steps,
                verified_applications=verified,
            )

    # -- phase 5 ---------------------------------------------------------------

    def _expand_body(self, graph: ExprHigh, saved_body: ExprHigh) -> ExprHigh:
        """Replace the tagged ``Pure; Split`` pair with the saved tagged body.

        *saved_body* is the purify rewrite's lhs: the original region with
        its internal connections and interface marks.  Expansion re-creates
        it with ``tagged=true`` on every value-transforming component, the
        reverse of Pure generation (phase 5 of section 3.1).
        """
        pure_nodes = [
            name
            for name in graph.nodes_of_type("Pure")
            if graph.nodes[name].param("tagged") is True
        ]
        if len(pure_nodes) != 1:
            raise RewriteError(f"expected one tagged Pure body, found {pure_nodes}")
        body = pure_nodes[0]
        fn = str(graph.nodes[body].param("fn"))
        split_sinks = graph.sinks_of(body, "out0")
        if len(split_sinks) != 1 or graph.nodes[split_sinks[0].node].typ != "Split":
            raise RewriteError("tagged Pure body is not followed by the loop Split")
        split_name = split_sinks[0].node

        lhs = ExprHigh()
        lhs.add_node("body", NodeSpec.make("Pure", ["in0"], ["out0"], {"fn": fn, "tagged": True}))
        lhs.add_node("sp", split_spec(tagged=True))
        lhs.connect("body", "out0", "sp", "in0")
        lhs.mark_input(0, "body", "in0")
        lhs.mark_output(0, "sp", "out0")
        lhs.mark_output(1, "sp", "out1")

        def rhs(match: Match) -> ExprHigh:
            replacement = ExprHigh()
            for name, spec in saved_body.nodes.items():
                replacement.add_node(name, _tagged_spec(spec))
            for dst, src in saved_body.connections.items():
                replacement.connect(src.node, src.port, dst.node, dst.port)
            for index, endpoint in saved_body.inputs.items():
                replacement.mark_input(index, endpoint.node, endpoint.port)
            for index, endpoint in saved_body.outputs.items():
                replacement.mark_output(index, endpoint.node, endpoint.port)
            return replacement

        expand = Rewrite(
            name="expand-body",
            lhs=lhs,
            rhs=rhs,
            verified=False,
            description="Pure body expanded back into tagged components (phase 5)",
        )
        match = Match(
            nodes={"body": body, "sp": split_name},
            params={},
            inputs={0: Endpoint(body, "in0")},
            outputs={0: Endpoint(split_name, "out0"), 1: Endpoint(split_name, "out1")},
            host_specs={body: graph.nodes[body], split_name: graph.nodes[split_name]},
        )
        return self.engine.apply_at(graph, expand, match)


def _tagged_spec(spec: NodeSpec) -> NodeSpec:
    if spec.typ in ("Operator", "Pure", "Join", "Split"):
        return spec.with_params(tagged=True)
    return spec


def _single_node(graph: ExprHigh, typ: str) -> str:
    nodes = graph.nodes_of_type(typ)
    if len(nodes) != 1:
        raise RewriteError(f"expected exactly one {typ} after normalization, found {nodes}")
    return nodes[0]


def remove_identity_wires(graph: ExprHigh) -> ExprHigh:
    """Drop untagged ``Pure{fn=id}`` nodes, fusing their connections.

    A pure identity over an elastic channel is a wire; removing it deletes
    one queue, which only removes behaviours.  This is an (unverified)
    hygiene pass, the analogue of Dynamatic's wire cleanups.
    """
    result = graph.copy()
    for name in list(result.nodes_of_type("Pure")):
        spec = result.nodes.get(name)
        if spec is None or spec.param("fn") != "id":
            continue
        if spec.param("tagged") is True:
            continue
        source = result.source_of(name, "in0")
        sinks = result.sinks_of(name, "out0")
        if source is None or len(sinks) != 1:
            continue
        sink = sinks[0]
        result.remove_node(name)
        result.connect(source.node, source.port, sink.node, sink.port)
    return result
