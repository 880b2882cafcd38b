"""Executor behaviour: ordering, caching, crash fallback, retries, and
the cyclic collector's pause around each unit."""

import gc
import os
import threading

import pytest

from repro import obs
from repro.exec.cache import ResultCache
from repro.exec.executor import Executor, ExecutorError, WorkUnit, _call_unit, resolve_worker
from repro.exec.hashing import fingerprint
from repro.obs import MetricsSnapshot

DOUBLE = "tests.exec.workertasks:double"
COLLECTOR_STATE = "tests.exec.workertasks:collector_state"


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


@pytest.fixture
def collector_restored():
    """Turn the collector back on whatever a test leaves it in."""
    assert gc.isenabled()
    yield
    gc.enable()


def collector_units(count):
    return [WorkUnit(uid=f"gc:{i}", fn=COLLECTOR_STATE) for i in range(count)]


@pytest.mark.usefixtures("collector_restored")
class TestCollectorPause:
    def test_a_unit_runs_paused_and_the_collector_is_on_after_it(self):
        assert Executor(jobs=1).run(collector_units(2)) == [{"enabled": False}] * 2
        assert gc.isenabled()

    def test_the_collector_is_on_after_a_unit_raises(self):
        units = [WorkUnit(uid="bad", fn="tests.exec.workertasks:fail_always")]
        with pytest.raises(ValueError, match="boom"):
            Executor(jobs=1).run(units)
        assert gc.isenabled()

    def test_a_caller_that_disabled_the_collector_finds_it_disabled(self):
        gc.disable()
        Executor(jobs=1).run(collector_units(1))
        assert not gc.isenabled()

    def test_a_nested_unit_leaves_the_pause_to_the_outer_one(self):
        units = [WorkUnit(uid="outer", fn="tests.exec.workertasks:nested_collector_state")]
        assert Executor(jobs=1).run(units) == [{"inner": False, "after_inner": False}]
        assert gc.isenabled()

    def test_a_unit_off_the_main_thread_leaves_the_collector_alone(self):
        results = []
        thread = threading.Thread(
            target=lambda: results.extend(Executor(jobs=1).run(collector_units(1)))
        )
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert results[0]["enabled"] is True
        assert gc.isenabled()

    def test_the_pool_entry_pauses_the_collector(self):
        outcome = _call_unit(COLLECTOR_STATE, {}, uid="gc")
        assert outcome["value"]["enabled"] is False
        assert gc.isenabled()

    def test_pool_workers_run_the_collector_between_units(self):
        with Executor(jobs=2) as executor:
            results, metrics = run_counted(executor, collector_units(4))
            assert metrics.counters.get("executor.pool") == 4
            assert results == [{"enabled": False}] * 4
            pool = executor._ensure_pool()
            assert all(pool.submit(gc.isenabled).result(timeout=30) for _ in range(4))
        assert gc.isenabled()


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
