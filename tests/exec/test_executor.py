"""Executor behaviour: ordering, caching, crash fallback, retries."""

import os

import pytest

from repro import obs
from repro.exec.cache import ResultCache
from repro.exec.executor import Executor, ExecutorError, WorkUnit, resolve_worker
from repro.exec.hashing import fingerprint
from repro.obs import MetricsSnapshot

DOUBLE = "tests.exec.workertasks:double"


def run_counted(executor, units):
    """Run a batch under a private tracer; returns (results, snapshot)."""
    with obs.scoped_tracer() as tracer:
        results = executor.run(units)
    return results, MetricsSnapshot(counters=tracer.counters)


def double_units(count, cached=False):
    return [
        WorkUnit(
            uid=f"double:{i}",
            fn=DOUBLE,
            payload={"x": i},
            cache_key=fingerprint("double", str(i)) if cached else None,
        )
        for i in range(count)
    ]


class TestResolve:
    def test_resolves_module_function(self):
        assert resolve_worker(DOUBLE)(x=3) == {"value": 6}

    def test_bad_specs_raise(self):
        with pytest.raises(ExecutorError):
            resolve_worker("no-colon")
        with pytest.raises(ExecutorError):
            resolve_worker("tests.exec.workertasks:missing")
        with pytest.raises(ExecutorError):
            resolve_worker("not.a.module:fn")


class TestSerial:
    def test_results_in_submission_order(self):
        results = Executor(jobs=1).run(double_units(5))
        assert results == [{"value": 2 * i} for i in range(5)]

    def test_metrics_record_every_unit(self):
        _, metrics = run_counted(Executor(jobs=1), double_units(3))
        assert metrics.executed == 3 and metrics.hits == 0


class TestParallel:
    def test_matches_serial_results_and_order(self):
        serial = Executor(jobs=1).run(double_units(8))
        parallel = Executor(jobs=2).run(double_units(8))
        assert parallel == serial

    def test_worker_crash_falls_back_to_serial(self):
        # The unit hard-kills any pool worker it lands in (BrokenProcessPool)
        # but succeeds in the parent: the batch must still complete.
        units = [
            WorkUnit(
                uid=f"crash:{i}",
                fn="tests.exec.workertasks:crash_unless_parent",
                payload={"parent_pid": os.getpid(), "x": i},
            )
            for i in range(3)
        ]
        results, metrics = run_counted(Executor(jobs=2), units)
        assert results == [{"value": i} for i in range(3)]
        assert metrics.retries >= 1

    def test_worker_exception_retried_serially(self):
        units = [
            WorkUnit(
                uid=f"flaky:{i}",
                fn="tests.exec.workertasks:fail_in_worker_only",
                payload={"parent_pid": os.getpid(), "x": i},
            )
            for i in range(3)
        ]
        results, metrics = run_counted(Executor(jobs=2), units)
        assert results == [{"value": i} for i in range(3)]
        assert metrics.retries == 3

    def test_genuine_failure_propagates(self):
        units = [WorkUnit(uid="bad", fn="tests.exec.workertasks:fail_always", payload={})]
        with pytest.raises(ValueError, match="boom"):
            Executor(jobs=1).run(units)


class TestCaching:
    def test_second_run_recomputes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = Executor(jobs=1, cache=cache).run(double_units(4, cached=True))

        second, metrics = run_counted(
            Executor(jobs=1, cache=cache), double_units(4, cached=True)
        )
        assert second == first
        assert metrics.executed == 0 and metrics.hits == 4

    def test_unwritable_shard_returns_the_value_and_counts_the_failure(self, tmp_path):
        # A plain file where the entry's shard directory should be (chmod
        # would not stop root) makes the write fail after the unit ran.
        cache = ResultCache(tmp_path)
        [unit] = double_units(1, cached=True)
        (tmp_path / unit.cache_key[:2]).write_text("not a directory")
        with obs.scoped_tracer() as tracer:
            results = Executor(jobs=1, cache=cache).run([unit])
        assert results == [{"value": 0}]
        assert tracer.counters["cache.write_failures"] == 1
        assert "cache.writes" not in tracer.counters
        assert cache.get(unit.cache_key) is None

    def test_cache_miss_on_changed_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        Executor(jobs=1, cache=cache).run(double_units(2, cached=True))
        changed = [
            WorkUnit(
                uid="double:0",
                fn=DOUBLE,
                payload={"x": 5},
                cache_key=fingerprint("double", "changed"),
            )
        ]
        results, metrics = run_counted(Executor(jobs=1, cache=cache), changed)
        assert results == [{"value": 10}]
        assert metrics.executed == 1

    def test_corrupted_entry_recovers_by_recomputation(self, tmp_path):
        cache = ResultCache(tmp_path)
        units = double_units(1, cached=True)
        Executor(jobs=1, cache=cache).run(units)
        cache.path_for(units[0].cache_key).write_text("garbage")
        results, metrics = run_counted(Executor(jobs=1, cache=cache), units)
        assert results == [{"value": 0}]
        assert metrics.executed == 1 and metrics.counters["cache.corrupt"] == 1
        # The recomputation rewrote the entry: a third run is a pure hit.
        _, metrics2 = run_counted(Executor(jobs=1, cache=cache), units)
        assert metrics2.hits == 1 and metrics2.executed == 0
