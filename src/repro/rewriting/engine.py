"""The rewriting engine: obligation checking, application, fixpoints.

The engine drives rewrites the way figure 1 of the paper describes: pick a
rewrite, run its matcher on the ExprHigh graph, apply it through ExprLow,
lift the result back, repeat.  Every application is logged; rewrites whose
refinement obligation has been discharged are tagged ``verified`` in the
log, so a pipeline's output carries the same guarantee structure as the
paper's (a verified core rewrite within a partially-unverified pipeline).

``apply_exhaustively`` runs a *dirty-region worklist*: once a rewrite has
been scanned against the whole graph without matching, it is only
re-matched against anchors in or near the nodes a subsequent application
touched.  Because any new match must involve a changed node (and the
matcher enumerates anchors in the same sorted order either way), the
worklist applies exactly the same rewrite sequence as the historical
whole-graph scan — it just skips the provably matchless work.  A final
full scan confirms the fixpoint before returning; ``use_worklist=False``
selects the original scan-everything loop.

The engine's work is counted on the active :mod:`repro.obs` tracer (cf.
section 6.3): ``rewriting.applied``, ``rewriting.matches_tried``,
``rewriting.full_scans``, ``rewriting.worklist_scans`` and
``rewriting.seconds``, plus per-rewrite ``rewriting.applied:<name>``,
``rewriting.matches_tried:<name>`` and ``rewriting.match_seconds:<name>``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Sequence

from .. import obs
from ..core.exprhigh import ExprHigh
from ..errors import RefinementError, RewriteError
from ..refinement.checker import check_rewrite_obligation
from .apply import Application, apply_rewrite
from .matcher import MatchStats, find_matches, first_match, match_plan
from .rewrite import Match, Rewrite


class RewriteEngine:
    """Applies rewrites and tracks their provenance in :attr:`log`."""

    def __init__(self, check_obligations: bool = False, cache=None):
        self.check_obligations = check_obligations
        self.cache = cache  # a repro.exec cache (ResultCache/NullCache), or None
        self.log: list[Application] = []
        self._discharged: set[str] = set()

    # -- obligation discharge -------------------------------------------------

    def verify_rewrite(self, rewrite: Rewrite) -> bool:
        """Discharge the rewrite's refinement obligation on its instances.

        Returns True when every bounded instance of ``rhs ⊑ lhs`` holds;
        raises :class:`RefinementError` on a counterexample.  Results are
        remembered per rewrite name within this engine.  When the engine
        was given a result cache, each instance goes through the
        certificate path of :func:`check_rewrite_obligation`: a stored
        certificate is rechecked, never trusted as a bare verdict.
        """
        if rewrite.name in self._discharged:
            return True
        if rewrite.obligation is None:
            raise RefinementError(
                f"rewrite {rewrite.name!r} has no obligation instances to check"
            )
        with obs.span(f"obligation:{rewrite.name}") as sp:
            instances = list(rewrite.obligation())
            sp.set(instances=len(instances))
            for lhs, rhs, env, stimuli in instances:
                check_rewrite_obligation(lhs, rhs, env, stimuli, cache=self.cache)
        self._discharged.add(rewrite.name)
        return True

    # -- application ----------------------------------------------------------

    def apply_once(
        self,
        graph: ExprHigh,
        rewrite: Rewrite,
        anchors: Iterable[str] | None = None,
    ) -> ExprHigh | None:
        """Apply *rewrite* at its first match; None when it does not match.

        *anchors*, when given, restricts the match search to occurrences
        anchored at those host nodes (the worklist's dirty region).
        """
        start = perf_counter()
        with obs.span(
            f"rewrite:{rewrite.name}",
            scope="full" if anchors is None else "worklist",
        ) as sp:
            try:
                if self.check_obligations and rewrite.verified and rewrite.obligation is not None:
                    self.verify_rewrite(rewrite)
                mstats = MatchStats()
                match_start = perf_counter()
                with obs.span("match"):
                    match = first_match(graph, rewrite, anchors=anchors, stats=mstats)
                obs.count(f"rewriting.match_seconds:{rewrite.name}", perf_counter() - match_start)
                obs.count(f"rewriting.matches_tried:{rewrite.name}", mstats.candidates)
                obs.count("rewriting.matches_tried", mstats.candidates)
                sp.set(matches_tried=mstats.candidates, applied=match is not None)
                if anchors is None:
                    obs.count("rewriting.full_scans")
                else:
                    obs.count("rewriting.worklist_scans")
                if match is None:
                    return None
                with obs.span("apply"):
                    new_graph, application = apply_rewrite(graph, rewrite, match)
                self._log(application)
                return new_graph
            finally:
                obs.count("rewriting.seconds", perf_counter() - start)

    def apply_at(self, graph: ExprHigh, rewrite: Rewrite, match: Match) -> ExprHigh:
        """Apply *rewrite* at a specific, externally chosen match."""
        start = perf_counter()
        with obs.span(f"rewrite:{rewrite.name}", scope="at", applied=True):
            try:
                if self.check_obligations and rewrite.verified and rewrite.obligation is not None:
                    self.verify_rewrite(rewrite)
                new_graph, application = apply_rewrite(graph, rewrite, match)
                self._log(application)
                return new_graph
            finally:
                obs.count("rewriting.seconds", perf_counter() - start)

    def _log(self, application: Application) -> None:
        self.log.append(application)
        obs.count("rewriting.applied")
        obs.count(f"rewriting.applied:{application.rewrite}")

    def apply_exhaustively(
        self,
        graph: ExprHigh,
        rewrites: Sequence[Rewrite],
        max_steps: int = 10_000,
        use_worklist: bool = True,
    ) -> ExprHigh:
        """Apply the given rewrites to fixpoint, first-match-first order.

        This is the "exhaustively apply the applicable rewrites in that
        phase" strategy of section 3.1.  Raises :class:`RewriteError` when
        *max_steps* applications do not reach a fixpoint (a diverging rule
        set).  With *use_worklist* (the default) matching after the first
        full scan is restricted to dirty regions; the applied sequence and
        the result are identical to the whole-graph scan.
        """
        if not use_worklist:
            return self._apply_exhaustively_scan(graph, rewrites, max_steps)

        # One BFS radius covers every rewrite: a match involves nodes within
        # pattern-diameter hops of its anchor, plus one hop of boundary
        # context, so pattern-size + 1 hops of the changed nodes is enough
        # to reach every anchor whose matchability could have changed.
        radius = max((len(r.lhs.nodes) for r in rewrites), default=1) + 1
        # None: no cleanliness knowledge, scan everything.  A set: every
        # possible match is anchored inside it (empty = provably matchless).
        # Disconnected patterns always rescan — a far-away change can
        # complete a match anchored at an untouched node.
        track = [match_plan(r).connected for r in rewrites]
        dirty: list[set[str] | None] = [None] * len(rewrites)
        steps = 0
        confirming = False  # True while running the final full-scan sweep
        while True:
            for index, rewrite in enumerate(rewrites):
                anchors = dirty[index]
                if anchors is not None and not anchors:
                    continue  # provably matchless since the last scan
                new_graph = self.apply_once(graph, rewrite, anchors=anchors)
                if new_graph is None:
                    if track[index]:
                        dirty[index] = set()
                    continue
                graph = new_graph
                steps += 1
                if steps >= max_steps:
                    raise RewriteError(
                        f"no fixpoint after {max_steps} rewrite applications; "
                        f"rule set {[r.name for r in rewrites]} may diverge"
                    )
                application = self.log[-1]
                region = self._dirty_region(graph, application.new_nodes, radius)
                for j in range(len(rewrites)):
                    if dirty[j] is not None:
                        alive = {a for a in dirty[j] if a in graph.nodes}
                        dirty[j] = alive | region
                confirming = False
                break  # restart from the highest-priority rewrite
            else:
                # A full sweep without an application: every rewrite is
                # matchless.  Confirm once with unrestricted scans (defence
                # in depth for the dirty-region bookkeeping), then return.
                if confirming or all(d is None for d in dirty):
                    return graph
                dirty = [None] * len(rewrites)
                confirming = True

    def _apply_exhaustively_scan(
        self,
        graph: ExprHigh,
        rewrites: Sequence[Rewrite],
        max_steps: int,
    ) -> ExprHigh:
        """The pre-worklist strategy: re-scan the whole graph every step."""
        for _ in range(max_steps):
            for rewrite in rewrites:
                new_graph = self.apply_once(graph, rewrite)
                if new_graph is not None:
                    graph = new_graph
                    break
            else:
                return graph
        raise RewriteError(
            f"no fixpoint after {max_steps} rewrite applications; "
            f"rule set {[r.name for r in rewrites]} may diverge"
        )

    @staticmethod
    def _dirty_region(graph: ExprHigh, seeds: Iterable[str], radius: int) -> set[str]:
        """Nodes within *radius* hops of *seeds* (which are all dirty).

        Every crossing edge of an application re-attaches to a replacement
        node, so the replacement's ``new_nodes`` seed the BFS: any node
        whose neighbourhood changed is adjacent to one of them.
        """
        region = {name for name in seeds if name in graph.nodes}
        frontier = set(region)
        for _ in range(radius):
            if not frontier:
                break
            grown = set()
            for node in frontier:
                for neighbour in graph.adjacent_nodes(node):
                    if neighbour not in region:
                        region.add(neighbour)
                        grown.add(neighbour)
            frontier = grown
        return region

    def matches(self, graph: ExprHigh, rewrite: Rewrite) -> Iterable[Match]:
        return find_matches(graph, rewrite)

    def verified_fraction(self) -> float:
        """Fraction of logged applications that used verified rewrites."""
        if not self.log:
            return 1.0
        return sum(1 for a in self.log if a.verified) / len(self.log)
