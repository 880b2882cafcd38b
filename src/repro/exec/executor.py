"""The parallel, cached work-unit executor.

A :class:`WorkUnit` names a module-level worker function (``"module:attr"``
— the indirection keeps units picklable, since worker processes re-resolve
the callable themselves), a picklable keyword payload, and an optional
content-addressed cache key.  :meth:`Executor.run` evaluates a batch:

1. every unit with a cache hit is answered immediately;
2. the misses run — serially when ``jobs == 1`` (or only one miss), else
   fanned out over a :class:`~concurrent.futures.ProcessPoolExecutor`;
3. a unit whose worker raises, or whose pool dies underneath it
   (``BrokenProcessPool``), is retried *serially in the parent* — the pool
   is an optimisation, never a source of new failure modes; an exception
   from the serial retry is genuine and propagates;
4. results come back **in submission order**, whatever order workers
   finished in, so downstream output is byte-identical to a serial run.

Worker functions must return a JSON-serialisable value other than ``None``
(``None`` is the cache-miss sentinel).

Observability: every unit is counted on the active tracer by how it was
answered — ``executor.cache_hits`` / ``executor.serial`` /
``executor.pool`` / ``executor.serial-retry`` (plus
``executor.cache_misses``) — and its time is added to the float counter
``executor.seconds``.  When a sink is attached, every unit also gets a
``unit:<uid>`` span whose ``mode`` attribute records the same.  Serial
units count and nest their callee spans naturally; pool workers record
into a private tracer and ship its counters (and, when tracing, its span
subtree) back inside the outcome dict, which the parent adds to its
active tracer (see :meth:`repro.obs.Tracer.merge` and
:meth:`repro.obs.Tracer.graft`).

Garbage collection: a unit runs with CPython's cyclic collector paused
(:func:`_run_unit`), in the parent's serial path and in each pool
worker.  The layers units run keep their objects free of reference
cycles, so their memory goes back by reference counting; what the
collector would do mid-unit is rescan the unit's live memo tables and
clause lists, which on ``verify-cold`` took about a sixth of the pass and
freed nothing.  Any cyclic garbage a unit does make waits at most until
the first collection after the unit ends.  The pause acts only on the
main thread, so a Session driven from a service thread never holds
collection off for the other threads; it leaves a collector that the
caller disabled disabled, and is a no-op inside another paused unit.
The pool is forked outside any unit, so workers start with the collector
on and run it between units.
"""

from __future__ import annotations

import gc
import importlib
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .. import obs
from ..errors import GraphitiError
from .cache import NullCache

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor


class ExecutorError(GraphitiError):
    """A work unit was malformed or its worker could not be resolved."""


@dataclass(frozen=True)
class WorkUnit:
    """One independent, picklable piece of work."""

    uid: str
    fn: str  # "package.module:function"
    payload: dict = field(default_factory=dict)
    cache_key: str | None = None


def resolve_worker(spec: str) -> Callable[..., Any]:
    """Import ``"module:function"`` and return the callable."""
    module_name, sep, attr = spec.partition(":")
    if not sep or not module_name or not attr:
        raise ExecutorError(f"worker spec {spec!r} is not of the form 'module:function'")
    # Every unit resolves its worker; once imported, the module is read
    # straight from sys.modules, without the import machinery.
    module = sys.modules.get(module_name)
    if module is None:
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            raise ExecutorError(f"cannot import worker module {module_name!r}: {exc}") from exc
    fn = getattr(module, attr, None)
    if not callable(fn):
        raise ExecutorError(f"worker {spec!r} does not name a callable")
    return fn


def _run_unit(fn_spec: str, payload: dict) -> Any:
    """Call one unit's worker with the cyclic garbage collector paused.

    The collector is turned back on, also when the worker raises, only if
    this call turned it off.  Nesting needs no counter: an inner unit
    finds the collector already off and leaves it to the outer one.  Off
    the main thread the collector is left alone.
    """
    paused = gc.isenabled() and threading.current_thread() is threading.main_thread()
    if paused:
        gc.disable()
    try:
        return resolve_worker(fn_spec)(**payload)
    finally:
        if paused:
            gc.enable()


def _call_unit(fn_spec: str, payload: dict, uid: str = "", trace: bool = False) -> dict:
    """Pool entry point: run one unit under a private tracer.

    Returns the value, the in-worker wall time and the tracer's counters,
    which the parent adds to its own.  With *trace* the worker also
    records spans and ships the serialised subtree back under ``"spans"``
    so the parent can graft it into its own trace (durations are
    in-worker wall times).
    """
    tracer = obs.Tracer()
    sink = tracer.attach(obs.InMemorySink()) if trace else None
    start = perf_counter()
    with obs.scoped_tracer(tracer), tracer.span(f"unit:{uid}", mode="pool"):
        value = _run_unit(fn_spec, payload)
    outcome = {"seconds": perf_counter() - start, "value": value, "counters": tracer.counters}
    if sink is not None:
        outcome["spans"] = [root.to_dict() for root in sink.spans]
    return outcome


class Executor:
    """Runs batches of work units with caching and a process pool.

    The pool is created lazily on the first parallel batch and **reused**
    across :meth:`run` calls — a long-running caller (the verification
    service, a warm REPL session) pays the worker-spawn cost once, not per
    batch.  :meth:`close` drains and releases it; a broken pool is
    discarded and transparently rebuilt on the next batch.
    """

    def __init__(self, jobs: int = 1, cache=None):
        self.jobs = max(1, int(jobs))
        self.cache = cache if cache is not None else NullCache()
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Drain the persistent worker pool and refuse further batches.

        Idempotent.  In-flight work submitted by an earlier :meth:`run`
        call finishes (``shutdown(wait=True)``); subsequent :meth:`run`
        calls raise :class:`ExecutorError`.
        """
        self._closed = True
        self._discard_pool(wait=True)

    def _discard_pool(self, wait: bool) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Imported here, so a serial (jobs=1) process never loads them.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            context = multiprocessing.get_context(
                "fork" if "fork" in multiprocessing.get_all_start_methods() else None
            )
            self._pool = ProcessPoolExecutor(max_workers=self.jobs, mp_context=context)
        return self._pool

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- batches ---------------------------------------------------------------

    def run(self, units: Sequence[WorkUnit]) -> list[Any]:
        """Evaluate every unit; results are indexed like *units*."""
        if self._closed:
            raise ExecutorError("executor is closed (Session.close() was called)")
        units = list(units)
        with obs.span("exec:run", units=len(units), jobs=self.jobs) as batch_span:
            results: list[Any] = [None] * len(units)
            pending: list[int] = []
            for index, unit in enumerate(units):
                hit = self._lookup(unit)
                if hit is not None:
                    results[index] = hit[0]
                else:
                    pending.append(index)
            batch_span.set(cached=len(units) - len(pending))
            if not pending:
                return results
            if self.jobs == 1 or len(pending) == 1:
                for index in pending:
                    results[index] = self._run_serial(units[index])
            else:
                self._run_pool(units, pending, results)
            return results

    # -- cache --------------------------------------------------------------

    def _lookup(self, unit: WorkUnit) -> tuple[Any] | None:
        if unit.cache_key is None:
            return None
        start = perf_counter()
        payload = self.cache.get(unit.cache_key)
        if payload is None:
            obs.count("executor.cache_misses")
            return None
        seconds = perf_counter() - start
        obs.count("executor.cache_hits")
        obs.count("executor.seconds", seconds)
        tracer = obs.get_tracer()
        if tracer.active:
            tracer.graft(
                {"name": f"unit:{unit.uid}", "seconds": seconds}, mode="cache"
            )
        return (payload,)

    def _store(self, unit: WorkUnit, value: Any) -> None:
        if unit.cache_key is not None and value is not None:
            self.cache.put(unit.cache_key, value)

    # -- serial path ---------------------------------------------------------

    def _run_serial(self, unit: WorkUnit, retried: bool = False) -> Any:
        mode = "serial-retry" if retried else "serial"
        obs.count(f"executor.{mode}")
        with obs.span(f"unit:{unit.uid}", mode=mode, retried=retried):
            start = perf_counter()
            value = _run_unit(unit.fn, unit.payload)
            obs.count("executor.seconds", perf_counter() - start)
        self._store(unit, value)
        return value

    # -- pool path ------------------------------------------------------------

    def _run_pool(self, units: list[WorkUnit], pending: list[int], results: list[Any]) -> None:
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        completed: set[int] = set()
        fallback: list[int] = []
        tracer = obs.get_tracer()
        trace = tracer.active
        try:
            pool = self._ensure_pool()
            futures = {
                pool.submit(
                    _call_unit,
                    units[index].fn,
                    units[index].payload,
                    uid=units[index].uid,
                    trace=trace,
                ): index
                for index in pending
            }
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures[future]
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        raise
                    except Exception:
                        # The unit itself failed in the worker; retry it
                        # serially so a transient worker problem cannot
                        # fail the batch.
                        fallback.append(index)
                        completed.add(index)
                        continue
                    results[index] = outcome["value"]
                    completed.add(index)
                    obs.count("executor.pool")
                    obs.count("executor.seconds", outcome["seconds"])
                    tracer.merge(outcome["counters"])
                    for data in outcome.get("spans", ()):
                        tracer.graft(data, uid=units[index].uid)
                    self._store(units[index], outcome["value"])
        except (BrokenProcessPool, OSError):
            # The pool itself died (a worker crashed hard, or fork failed):
            # everything not finished falls back to the serial path, and the
            # dead pool is discarded so the next batch forks a fresh one.
            self._discard_pool(wait=False)
        fallback.extend(index for index in pending if index not in completed)
        for index in fallback:
            results[index] = self._run_serial(units[index], retried=True)
