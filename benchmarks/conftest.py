"""Shared fixtures for the benchmark harness.

Running every benchmark through all four flows takes minutes, so the
results are computed once per session and shared by every table/figure
bench module.
"""

from __future__ import annotations

import pytest

from repro import Session
from repro.eval.paper_data import BENCHMARKS

_CACHE: dict = {}


def get_results() -> dict:
    """All six paper benchmarks through all four flows (computed once)."""
    if not _CACHE:
        with Session(use_cache=False) as session:
            _CACHE.update(session.bench_many(BENCHMARKS))
    return _CACHE


@pytest.fixture(scope="session")
def results():
    return get_results()


@pytest.fixture
def once(benchmark):
    """Run a check exactly once under the benchmark fixture.

    The harness is driven with ``--benchmark-only``, which deselects tests
    that do not use the fixture; table-printing and shape-check tests wrap
    themselves in this helper so they run (and get timed) alongside the
    simulation benchmarks.
    """

    used = []

    def run(fn=lambda: None):
        used.append(True)
        return benchmark.pedantic(fn, rounds=1, iterations=1)

    yield run
    if not used:  # keep the benchmark fixture "used" even for pure checks
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
