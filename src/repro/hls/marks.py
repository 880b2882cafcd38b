"""Loop marks: which nodes of a dataflow graph form the loop to transform.

:class:`LoopMark` is the oracle information the paper takes from
Elakhras et al., produced by the front end (:mod:`repro.hls.frontend`)
or given by hand (``repro transform``).  It lives apart from the front
end so that marking a hand-written graph loads no numerics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..core.exprhigh import ExprHigh
from ..errors import FrontendError


@dataclass
class LoopMark:
    """Oracle metadata naming the loop structure inside a compiled kernel."""

    kernel: str
    mux_nodes: list[str]
    branch_nodes: list[str]
    init_node: str
    cond_fork: str  # the fork distributing the condition to branches + init
    driver: str
    collector: str
    tags: int
    effectful: bool  # body contains stores: must NOT be made out-of-order
    sequential_outer: bool

    @classmethod
    def from_graph(
        cls,
        graph: ExprHigh,
        *,
        kernel: str = "loop",
        mux_nodes: Iterable[str],
        branch_nodes: Iterable[str],
        init_node: str,
        cond_fork: str,
        driver: str = "",
        collector: str = "",
        tags: int = 4,
        effectful: bool | None = None,
        sequential_outer: bool = False,
    ) -> "LoopMark":
        """Build a mark validated against *graph*.

        Every referenced node must exist and have the component type its
        role requires; violations raise :class:`FrontendError` (a
        :class:`~repro.errors.GraphitiError`) naming the offending node,
        instead of failing deep inside the rewrite matcher.  When
        *effectful* is omitted it is derived from the graph (any Store
        component marks the loop effectful).
        """

        def require(name: str, role: str, expected: str | None) -> None:
            spec = graph.nodes.get(name)
            if spec is None:
                known = ", ".join(sorted(graph.nodes))
                raise FrontendError(
                    f"{role} node {name!r} is not in the graph (known nodes: {known})"
                )
            if expected is not None and spec.typ != expected:
                raise FrontendError(
                    f"{role} node {name!r} has component type {spec.typ!r}, "
                    f"expected {expected!r}"
                )

        mux_nodes = list(mux_nodes)
        branch_nodes = list(branch_nodes)
        if not mux_nodes:
            raise FrontendError("a loop mark needs at least one Mux node")
        if not branch_nodes:
            raise FrontendError("a loop mark needs at least one Branch node")
        if tags < 1:
            raise FrontendError(f"tag budget must be at least 1, got {tags}")
        for name in mux_nodes:
            require(name, "Mux", "Mux")
        for name in branch_nodes:
            require(name, "Branch", "Branch")
        require(init_node, "Init", "Init")
        require(cond_fork, "condition-fork", "Fork")
        if driver:
            require(driver, "driver", "Driver")
        if collector:
            require(collector, "collector", "Collector")
        if effectful is None:
            effectful = any(spec.typ == "Store" for spec in graph.nodes.values())
        return cls(
            kernel=kernel,
            mux_nodes=mux_nodes,
            branch_nodes=branch_nodes,
            init_node=init_node,
            cond_fork=cond_fork,
            driver=driver,
            collector=collector,
            tags=tags,
            effectful=effectful,
            sequential_outer=sequential_outer,
        )
