"""``repro.obs`` — the unified observability subsystem.

Hierarchical tracing, typed counters and profiling hooks shared by the
transform, verify and bench paths (see ``docs/api.md``, "Observability").
Zero dependencies, near-zero cost when idle: without an attached sink,
:func:`span` hands back a shared no-op context manager.

Typical use::

    from repro import obs

    sink = obs.get_tracer().attach(obs.InMemorySink())
    with obs.span("transform", kernel="gcd"):
        with obs.span("phase:purify") as sp:
            ...
            sp.set(steps=12)
    print(obs.render_tree(sink.spans))

The CLI exposes the same machinery as ``--trace FILE`` (JSONL export via
:class:`JsonlSink`) and ``--profile`` (span tree via :func:`render_tree`).
Counters are the one accumulator of work done: each
:class:`repro.api.Session` counts into a tracer of its own
(:func:`counting_scope`), and :meth:`repro.api.Session.metrics` wraps
those counters in a :class:`MetricsSnapshot`.
"""

from .core import (
    Span,
    Tracer,
    count,
    counting_scope,
    get_tracer,
    scoped_tracer,
    span,
)
from .metrics import MetricsSnapshot
from .sinks import InMemorySink, JsonlSink, render_tree

__all__ = [
    "Span",
    "Tracer",
    "count",
    "counting_scope",
    "get_tracer",
    "scoped_tracer",
    "span",
    "MetricsSnapshot",
    "InMemorySink",
    "JsonlSink",
    "render_tree",
]
