"""The rewriting engine: application and fixpoints.

The engine drives rewrites the way figure 1 of the paper describes: pick a
rewrite, run its matcher on the ExprHigh graph, apply it through ExprLow,
lift the result back, repeat.  Every application is logged, and an
application of a rewrite marked ``verified`` is tagged ``verified`` in the
log, so a pipeline's output carries the same guarantee structure as the
paper's (a verified core rewrite within a partially-unverified pipeline).
The engine does not discharge obligations itself: as in the paper, where
each rewrite's proof is checked once, apart from any rewriting run,
:meth:`repro.api.Session.check_obligations` (``repro refine``) discharges
the library's obligations.

``apply_exhaustively`` scans the rewrites in priority order, applies the
first one that matches anywhere in the graph, and restarts from the top
until none matches.  Each scan is cheap because the matcher anchors its
search on the graph's type and adjacency indexes.

The engine's work is counted on the active :mod:`repro.obs` tracer (cf.
section 6.3): ``rewriting.applied``, ``rewriting.matches_tried`` and
``rewriting.seconds``, plus per-rewrite ``rewriting.applied:<name>``,
``rewriting.matches_tried:<name>`` and ``rewriting.match_seconds:<name>``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Sequence

from .. import obs
from ..core.exprhigh import ExprHigh
from ..errors import RewriteError
from .apply import Application, apply_rewrite
from .matcher import MatchStats, first_match
from .rewrite import Match, Rewrite


class RewriteEngine:
    """Applies rewrites and tracks their provenance in :attr:`log`."""

    def __init__(self):
        self.log: list[Application] = []

    # -- application ----------------------------------------------------------

    def apply_once(self, graph: ExprHigh, rewrite: Rewrite) -> ExprHigh | None:
        """Apply *rewrite* at its first match; None when it does not match."""
        start = perf_counter()
        with obs.span(f"rewrite:{rewrite.name}") as sp:
            try:
                mstats = MatchStats()
                match_start = perf_counter()
                with obs.span("match"):
                    match = first_match(graph, rewrite, stats=mstats)
                obs.count(f"rewriting.match_seconds:{rewrite.name}", perf_counter() - match_start)
                obs.count(f"rewriting.matches_tried:{rewrite.name}", mstats.candidates)
                obs.count("rewriting.matches_tried", mstats.candidates)
                sp.set(matches_tried=mstats.candidates, applied=match is not None)
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
    ) -> ExprHigh:
        """Apply the given rewrites to fixpoint, first-match-first order.

        This is the "exhaustively apply the applicable rewrites in that
        phase" strategy of section 3.1: after every application the scan
        restarts from the highest-priority rewrite.  Raises
        :class:`RewriteError` when a rewrite still matches after
        *max_steps* applications (a diverging rule set).
        """
        for _ in range(max_steps):
            for rewrite in rewrites:
                new_graph = self.apply_once(graph, rewrite)
                if new_graph is not None:
                    graph = new_graph
                    break  # restart from the highest-priority rewrite
            else:
                return graph
        if any(first_match(graph, rewrite) is not None for rewrite in rewrites):
            raise RewriteError(
                f"no fixpoint after {max_steps} rewrite applications; "
                f"rule set {[r.name for r in rewrites]} may diverge"
            )
        return graph
