"""Parallel, cached execution of independent work units.

The executor subsystem behind :class:`repro.api.Session`: canonical
fingerprints (:mod:`~repro.exec.hashing`), a content-addressed on-disk
result cache (:mod:`~repro.exec.cache`), and the process-pool orchestrator
itself (:mod:`~repro.exec.executor`), plus the picklable worker functions
it fans out (:mod:`~repro.exec.workers`).  Both the executor and the cache
account for their work in :mod:`repro.obs` counters (``executor.*``,
``cache.*``), which ``session.metrics()`` reads.
"""

from .cache import CacheError, NullCache, ResultCache, default_cache_dir
from .executor import Executor, ExecutorError, WorkUnit, resolve_worker
from .hashing import (
    TOOL_VERSION,
    eval_unit_key,
    fingerprint,
    graph_fingerprint,
    program_fingerprint,
    stimuli_fingerprint,
)

__all__ = [
    "CacheError",
    "NullCache",
    "ResultCache",
    "default_cache_dir",
    "Executor",
    "ExecutorError",
    "WorkUnit",
    "resolve_worker",
    "TOOL_VERSION",
    "eval_unit_key",
    "fingerprint",
    "graph_fingerprint",
    "program_fingerprint",
    "stimuli_fingerprint",
]
