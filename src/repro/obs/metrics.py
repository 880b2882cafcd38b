"""The unified metrics snapshot behind ``session.metrics()``.

Before v1.3 the statistics of one run were scattered over three
incompatible shapes — ``ExecutorMetrics`` (per-unit cache/pool accounting),
``EngineStats``/``RewriteStats`` (rewriting counters) — each with its own
accessors.  :class:`MetricsSnapshot` is the single surface they now roll up
into: plain-dict sections (so this module stays dependency-free) plus the
convenience properties the old accessors provided, implementing the
``to_dict()/summary()`` protocol of :mod:`repro.results`.

A snapshot is immutable-by-convention: it is built on demand by
:meth:`repro.api.Session.metrics` from the live accumulators and does not
update afterwards — call ``session.metrics()`` again for fresh numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _did_work(section: dict) -> bool:
    """True when any counter or timing in a metrics *section* is non-zero."""
    return any(value for value in section.values() if isinstance(value, (int, float)))


@dataclass
class MetricsSnapshot:
    """One moment's unified view of executor, rewriting and obs counters.

    Sections (all plain, JSON-serialisable dicts):

    * ``executor`` — ``units``/``hits``/``executed``/``retries``/
      ``total_seconds`` from the work-unit executor;
    * ``rewriting`` — ``rewrites_applied``/``matches_tried``/``seconds``/
      ``full_scans``/``worklist_scans`` plus ``per_rewrite`` keyed by
      rewrite name (``applied``/``matches_tried``/``match_seconds``);
    * ``counters``/``gauges`` — the observability tracer's typed counters
      (e.g. ``matcher.plan_cache_hits``) and gauges.
    """

    executor: dict = field(default_factory=dict)
    rewriting: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)

    # -- executor convenience (the old ExecutorMetrics surface) --------------

    @property
    def units(self) -> int:
        return int(self.executor.get("units", 0))

    @property
    def hits(self) -> int:
        return int(self.executor.get("hits", 0))

    @property
    def executed(self) -> int:
        return int(self.executor.get("executed", 0))

    @property
    def retries(self) -> int:
        return int(self.executor.get("retries", 0))

    @property
    def total_seconds(self) -> float:
        return float(self.executor.get("total_seconds", 0.0))

    # -- rewriting convenience (the old EngineStats surface) ------------------

    @property
    def rewrites_applied(self) -> int:
        return int(self.rewriting.get("rewrites_applied", 0))

    @property
    def matches_tried(self) -> int:
        return int(self.rewriting.get("matches_tried", 0))

    @property
    def per_rewrite(self) -> dict:
        return dict(self.rewriting.get("per_rewrite", {}))

    # -- result protocol / wire format (repro.results) -------------------------

    def to_dict(self) -> dict:
        from ..results import SCHEMA_VERSION

        return {
            "kind": "MetricsSnapshot",
            "schema_version": SCHEMA_VERSION,
            "executor": dict(self.executor),
            "rewriting": dict(self.rewriting),
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
        }

    @staticmethod
    def from_dict(data: dict) -> "MetricsSnapshot":
        from ..results import check_schema

        entry = check_schema(data, "MetricsSnapshot")
        return MetricsSnapshot(
            executor=dict(entry.get("executor", {})),
            rewriting=dict(entry.get("rewriting", {})),
            counters=dict(entry.get("counters", {})),
            gauges=dict(entry.get("gauges", {})),
        )

    def summary(self) -> str:
        """One line; the rewriting part appears only when that work
        happened (a fresh session reports an all-zero section)."""
        parts = [
            f"{self.units} units: {self.hits} cached, {self.executed} executed"
            f" ({self.retries} retried), {self.total_seconds:.2f}s work"
        ]
        if _did_work(self.rewriting):
            parts.append(
                f"{self.rewrites_applied} rewrites applied"
                f" ({self.matches_tried} candidates tried,"
                f" {float(self.rewriting.get('seconds', 0.0)):.2f}s)"
            )
        if self.counters:
            parts.append(
                "counters: "
                + ", ".join(f"{key}={value}" for key, value in sorted(self.counters.items()))
            )
        return "; ".join(parts)
