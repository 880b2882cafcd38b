"""Hierarchical spans and typed counters: the tracing core.

The observability substrate is deliberately zero-dependency and
allocation-free when idle: :func:`span` returns a shared no-op context
manager unless a sink is attached to the active tracer, so instrumented
hot paths (the rewrite engine, the matcher, the cycle simulator) pay one
attribute load and one truth test per call — measured ≤2% on
``benchmarks/bench_rewriting.py`` (see the ``--overhead-guard`` mode).

Concepts:

* a :class:`Span` is a named, timed region with attributes and children —
  ``span("transform") > span("phase:purify") > span("rewrite:mux-combine")``;
* a :class:`Tracer` owns the open-span stack, the attached sinks, and the
  always-on counters; closed *root* spans are emitted to every sink;
* :func:`counting_scope` gives a tracer of its own counters while it
  shares the enclosing tracer's spans and sinks — each
  :class:`repro.api.Session` counts its own work that way;
* worker processes record into their own tracer and serialise the subtree
  and the counters back with their results; the parent re-attaches the
  spans with :meth:`Tracer.graft` (the re-parented spans carry
  ``reparented: True`` and keep their in-worker durations — wall clocks of
  different processes are not comparable) and adds the counters with
  :meth:`Tracer.merge`.

Timing uses the monotonic :func:`time.perf_counter`; only durations are
ever exported, never absolute timestamps.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterator


class Span:
    """One named, timed region of work with attributes and child spans."""

    __slots__ = ("name", "attrs", "children", "start", "end", "_tracer")

    def __init__(self, name: str, attrs: dict | None = None, tracer: "Tracer | None" = None):
        self.name = name
        self.attrs: dict[str, Any] = attrs or {}
        self.children: list[Span] = []
        self.start: float | None = None
        self.end: float | None = None
        self._tracer = tracer

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer is not None:
            if tracer._stack:
                tracer._stack[-1].children.append(self)
            tracer._stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = perf_counter()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        tracer = self._tracer
        if tracer is not None:
            tracer._stack.pop()
            if not tracer._stack:
                tracer._emit(self)
        return False

    # -- measurements -------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def seconds(self) -> float:
        """Cumulative wall time (0.0 while the span is still open)."""
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Cumulative time minus the children's cumulative times."""
        return max(0.0, self.seconds - sum(child.seconds for child in self.children))

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span; chainable."""
        self.attrs.update(attrs)
        return self

    # -- (de)serialisation --------------------------------------------------

    def to_dict(self) -> dict:
        """Nested dict form — what pool workers ship back to the parent."""
        return {
            "name": self.name,
            "seconds": self.seconds,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    @staticmethod
    def from_dict(data: dict) -> "Span":
        """Rebuild a closed span tree from :meth:`to_dict` output.

        Durations are preserved by pinning ``start`` to 0 and ``end`` to
        the recorded seconds — only relative times survive a process hop.
        """
        span = Span(str(data.get("name", "?")), dict(data.get("attrs", {})))
        span.start = 0.0
        span.end = float(data.get("seconds", 0.0))
        span.children = [Span.from_dict(child) for child in data.get("children", [])]
        return span

    def walk(self) -> Iterator["Span"]:
        """Yield the span and every descendant, depth-first, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.seconds:.6f}s, {len(self.children)} children)"


class _NoopSpan:
    """The shared do-nothing span handed out while no sink is attached."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    @property
    def seconds(self) -> float:
        return 0.0


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Owns the open-span stack, the sinks, and the counters.

    A tracer with no sinks is *inactive*: :meth:`span` returns the shared
    no-op span and records nothing.  Counters are always on — they are
    plain dict updates, cheap enough for every call site that bothers to
    count.  A counter is an int, or a float for the ``*seconds*`` ones.
    """

    def __init__(self) -> None:
        self._stack: list[Span] = []
        self._sinks: list[Any] = []
        self.counters: dict[str, float] = {}

    # -- activation ---------------------------------------------------------

    @property
    def active(self) -> bool:
        """True when at least one sink is attached (spans are recorded)."""
        return bool(self._sinks)

    def attach(self, sink: Any) -> Any:
        """Attach a sink (an object with ``emit(span)``); returns it."""
        self._sinks.append(sink)
        return sink

    def detach(self, sink: Any) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)

    def _emit(self, root: Span) -> None:
        for sink in self._sinks:
            sink.emit(root)

    # -- spans ----------------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a span under the current one; no-op while inactive."""
        if not self._sinks:
            return _NOOP_SPAN
        return Span(name, attrs, tracer=self)

    @property
    def current(self) -> Span | None:
        """The innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    def graft(self, data: dict, **attrs: Any) -> Span | None:
        """Re-parent a serialised span tree under the current open span.

        This is how spans recorded in a pool worker rejoin the parent's
        trace: the worker ships ``root.to_dict()`` back with its result,
        and the parent grafts it where the dispatching span is open.  The
        grafted root is marked ``reparented: True`` (its durations are
        in-worker wall times, not parent-clock intervals).  Returns the
        grafted span, or None while inactive.
        """
        if not self._sinks:
            return None
        span = Span.from_dict(data)
        span.attrs.update(attrs)
        span.attrs["reparented"] = True
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self._emit(span)
        return span

    # -- counters -------------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        """Increment the named counter (always on, even with no sinks)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def merge(self, counters: dict) -> None:
        """Add every counter in *counters* (another tracer's) to this one."""
        for name, n in counters.items():
            self.count(name, n)

    def reset(self) -> None:
        """Clear the counters (the open-span stack is untouched)."""
        self.counters.clear()


# -- the process-global and request-scoped tracers -----------------------------

_TRACER = Tracer()

#: Context-local override of the global tracer.  ``contextvars`` scoping is
#: per-thread and per-asyncio-task, which is exactly the isolation the
#: verification service needs: each job installs a fresh tracer in its
#: worker thread via :func:`scoped_tracer`, so counters recorded while the
#: job runs never bleed into concurrently executing jobs or the server's
#: own accounting.
_SCOPED_TRACER: contextvars.ContextVar[Tracer | None] = contextvars.ContextVar(
    "repro_scoped_tracer", default=None
)


def get_tracer() -> Tracer:
    """The active tracer: the context-scoped one if set, else the global."""
    scoped = _SCOPED_TRACER.get()
    return _TRACER if scoped is None else scoped


@contextmanager
def scoped_tracer(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Install a *context-local* tracer for the current thread or task.

    The scoped tracer shadows the global one only within the installing
    context — other threads and asyncio tasks keep whatever they were
    using.  The verification service wraps every job execution in one of
    these, giving each request its own counters and span tree; tests and
    pool workers use it to record into a private tracer.
    """
    tracer = tracer if tracer is not None else Tracer()
    token = _SCOPED_TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _SCOPED_TRACER.reset(token)


@contextmanager
def counting_scope(tracer: Tracer) -> Iterator[Tracer]:
    """Count into *tracer* while spans go where they went before.

    For the scope's duration *tracer* is the active one, but it shares
    the enclosing tracer's open-span stack and sinks: a span opened inside
    nests under the enclosing open span and reaches the enclosing sinks,
    so ``--trace``/``--profile`` and attached sinks see one tree.  Only the
    counters are *tracer*'s own; when the scope ends, the counts recorded
    during it are added to the enclosing tracer too, which therefore still
    sees all the work done under it.  Re-entering the scope of the active
    tracer is a no-op, so nested calls add their counts once.
    """
    outer = get_tracer()
    if outer is tracer:
        yield tracer
        return
    tracer._stack, tracer._sinks = outer._stack, outer._sinks
    before = dict(tracer.counters)
    try:
        with scoped_tracer(tracer):
            yield tracer
    finally:
        outer.merge(
            {
                name: n - before.get(name, 0)
                for name, n in tracer.counters.items()
                if n != before.get(name, 0)
            }
        )


def span(name: str, **attrs: Any):
    """Open a span on the active tracer (no-op unless a sink is attached)."""
    scoped = _SCOPED_TRACER.get()
    tracer = _TRACER if scoped is None else scoped
    if not tracer._sinks:
        return _NOOP_SPAN
    return Span(name, attrs, tracer=tracer)


def count(name: str, n: float = 1) -> None:
    """Increment a counter on the active tracer."""
    scoped = _SCOPED_TRACER.get()
    (_TRACER if scoped is None else scoped).count(name, n)
