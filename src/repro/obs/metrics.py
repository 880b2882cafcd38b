"""The metrics snapshot behind ``session.metrics()``.

A :class:`MetricsSnapshot` holds one thing: a copy of a tracer's counters
(see :func:`repro.obs.counting_scope`).  The ``executor`` and
``rewriting`` sections are read-only views computed from those counters,
so there is a single source for every number; the convenience properties
mirror the section keys.  The snapshot implements the
``to_dict()/summary()`` protocol of :mod:`repro.results`.

A snapshot does not update after it is taken — call ``session.metrics()``
again for fresh numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: ``rewriting`` section key → the counter it reads.
_REWRITING = {
    "rewrites_applied": "rewriting.applied",
    "matches_tried": "rewriting.matches_tried",
    "seconds": "rewriting.seconds",
}


@dataclass
class MetricsSnapshot:
    """One moment's counters, with the executor and rewriting views.

    * ``counters`` — the tracer's counters (e.g. ``sim.runs``,
      ``cache.hits``, ``rewriting.applied:mux-combine``);
    * ``executor`` — ``units``/``hits``/``executed``/``retries``/
      ``total_seconds`` from the ``executor.*`` counters;
    * ``rewriting`` — ``rewrites_applied``/``matches_tried``/``seconds``
      plus ``per_rewrite`` keyed by rewrite name
      (``applied``/``matches_tried``/``match_seconds``).
    """

    counters: dict = field(default_factory=dict)

    # -- views ------------------------------------------------------------------

    @property
    def executor(self) -> dict:
        count = self.counters.get
        hits = count("executor.cache_hits", 0)
        retries = count("executor.serial-retry", 0)
        executed = count("executor.serial", 0) + retries + count("executor.pool", 0)
        return {
            "units": hits + executed,
            "hits": hits,
            "executed": executed,
            "retries": retries,
            "total_seconds": float(count("executor.seconds", 0.0)),
        }

    @property
    def rewriting(self) -> dict:
        section = {key: self.counters.get(name, 0) for key, name in _REWRITING.items()}
        section["seconds"] = float(section["seconds"])
        per_rewrite: dict[str, dict] = {}
        # Per-rewrite counters are named ``rewriting.<counter>:<rewrite>``.
        for name, value in self.counters.items():
            counter, sep, rewrite = name.partition(":")
            if sep and counter.startswith("rewriting."):
                entry = per_rewrite.setdefault(
                    rewrite, {"applied": 0, "matches_tried": 0, "match_seconds": 0.0}
                )
                entry[counter.removeprefix("rewriting.")] = value
        section["per_rewrite"] = dict(sorted(per_rewrite.items()))
        return section

    # -- executor convenience ------------------------------------------------

    @property
    def units(self) -> int:
        return int(self.executor["units"])

    @property
    def hits(self) -> int:
        return int(self.executor["hits"])

    @property
    def executed(self) -> int:
        return int(self.executor["executed"])

    @property
    def retries(self) -> int:
        return int(self.executor["retries"])

    @property
    def total_seconds(self) -> float:
        return self.executor["total_seconds"]

    # -- rewriting convenience -------------------------------------------------

    @property
    def rewrites_applied(self) -> int:
        return int(self.counters.get("rewriting.applied", 0))

    @property
    def matches_tried(self) -> int:
        return int(self.counters.get("rewriting.matches_tried", 0))

    @property
    def per_rewrite(self) -> dict:
        return self.rewriting["per_rewrite"]

    # -- result protocol / wire format (repro.results) -------------------------

    def to_dict(self) -> dict:
        from ..results import SCHEMA_VERSION

        return {
            "kind": "MetricsSnapshot",
            "schema_version": SCHEMA_VERSION,
            "executor": self.executor,
            "rewriting": self.rewriting,
            "counters": dict(self.counters),
        }

    @staticmethod
    def from_dict(data: dict) -> "MetricsSnapshot":
        """Rebuild from the counters; the sections are views of them.

        A version-2 payload reads too: its ``gauges`` are ignored, and its
        sections are recomputed from its counters.
        """
        from ..results import check_schema

        entry = check_schema(data, "MetricsSnapshot")
        return MetricsSnapshot(counters=dict(entry.get("counters", {})))

    def summary(self) -> str:
        """One line; the rewriting part appears only when that work
        happened.  Counters shown in the executor or rewriting parts are
        not repeated in the counter list."""
        parts = [
            f"{self.units} units: {self.hits} cached, {self.executed} executed"
            f" ({self.retries} retried), {self.total_seconds:.2f}s work"
        ]
        if self.rewrites_applied or self.matches_tried:
            parts.append(
                f"{self.rewrites_applied} rewrites applied"
                f" ({self.matches_tried} candidates tried,"
                f" {float(self.counters.get('rewriting.seconds', 0.0)):.2f}s)"
            )
        listed = sorted(
            (name, value)
            for name, value in self.counters.items()
            if not name.startswith("rewriting.") and name != "executor.seconds"
        )
        if listed:
            parts.append("counters: " + ", ".join(f"{k}={v}" for k, v in listed))
        return "; ".join(parts)
