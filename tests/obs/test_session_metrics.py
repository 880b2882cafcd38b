"""``session.metrics()`` counts the work of its own session, however scheduled."""

import threading

import pytest

from repro import Session
from repro.benchmarks import load_benchmark, matvec
from repro.components import default_environment
from repro.hls.frontend import compile_program
from repro.rewriting.pipeline import GraphitiPipeline
from tests.service.conftest import make_server  # noqa: F401  (fixture)

OBLIGATION = [("repro.rewriting.rules.combine", "mux_combine", {})]


@pytest.fixture(scope="module")
def matvec_bench():
    """One serial, uncached ``bench(name="matvec")``'s metrics, taken at once."""
    with Session(use_cache=False) as session:
        session.bench(name="matvec")
    return session.metrics()


def scheduling_independent(counters: dict) -> dict:
    """The counters that must not depend on jobs: no executor or timing ones."""
    return {
        name: value
        for name, value in counters.items()
        if not name.startswith("executor.") and "seconds" not in name
    }


def test_fresh_session_sees_no_counters_of_another_session(matvec_bench):
    with Session(use_cache=False) as fresh:
        snapshot = fresh.metrics()
    assert snapshot.counters == {}
    assert snapshot.executor == {
        "units": 0, "hits": 0, "executed": 0, "retries": 0, "total_seconds": 0.0,
    }


def test_bench_counts_the_graphiti_flows_rewrites(matvec_bench):
    env = default_environment()
    expected = sum(
        GraphitiPipeline(env).transform_kernel(ck.graph, ck.mark).rewrites_applied
        for ck in compile_program(load_benchmark("matvec"), env).kernels
    )
    assert expected > 0
    assert matvec_bench.rewrites_applied == expected


def test_bench_counters_do_not_depend_on_jobs():
    """Pool workers ship their counters back: jobs=2 counts what jobs=1 does."""
    # Two benchmarks are two units, so jobs=2 runs them in the pool.
    counters = {}
    for jobs in (1, 2):
        with Session(jobs=jobs, use_cache=False) as session:
            session.bench_many(["bicg", "matvec"])
        counters[jobs] = session.metrics().counters
    assert counters[2]["executor.pool"] == 2
    assert scheduling_independent(counters[2]) == scheduling_independent(counters[1])


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda s: s.check_obligations(), id="check_obligations"),
        pytest.param(lambda s: s.fuzz(seed=9), id="fuzz"),
    ],
)
def test_cached_counters_do_not_depend_on_jobs(call, tmp_path):
    """The same with a cache, which workers write certificates into."""
    counters = []
    for jobs in (1, 2):
        with Session(jobs=jobs, cache_dir=tmp_path / f"jobs{jobs}") as session:
            call(session)
        counters.append(session.metrics().counters)
    assert counters[1]["executor.pool"] > 0 and counters[1]["cache.writes"] > 0
    assert scheduling_independent(counters[1]) == scheduling_independent(counters[0])


def test_sessions_on_two_threads_count_only_their_own_work():
    def obligations(session):
        session.check_obligations(OBLIGATION)

    def fuzz(session):
        session.fuzz(cases=2, seed=1)

    calls = (obligations, fuzz)
    alone = []
    for call in calls:
        with Session(use_cache=False) as session:
            call(session)
            alone.append(scheduling_independent(session.metrics().counters))

    sessions = [Session(use_cache=False) for _ in calls]
    barrier = threading.Barrier(len(calls))
    errors = []

    def drive(session, call):
        try:
            barrier.wait()
            call(session)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=drive, args=pair) for pair in zip(sessions, calls)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert not errors
    together = [scheduling_independent(s.metrics().counters) for s in sessions]
    assert together == alone
    assert "interop.fuzz_cases" not in together[0]
    assert "refinement.weak_sim_checks" not in together[1]


def test_service_job_counters_include_pool_workers(make_server):
    _, client = make_server(jobs=2)
    # A bench job is one unit and runs in-process; two fuzz cases fan out.
    job = client.submit("fuzz", {"cases": 2, "seed": 0})
    final = client.wait(job["id"])
    assert final["state"] == "done"
    counters = final["metrics"]["counters"]
    assert counters["executor.pool"] == 2
    assert counters["sim.runs"] > 0


def test_corrupt_cache_entry_is_counted_and_recomputed(tmp_path):
    names = ["matvec", "small"]

    def bench(session):
        results = session.bench_many(names, {"matvec": matvec(4), "small": matvec(3)})
        return {name: result.to_dict() for name, result in results.items()}

    with Session(cache_dir=tmp_path) as cold:
        expected = bench(cold)
    [entry, *_] = sorted(tmp_path.glob("*/*.json"))
    entry.write_text("garbage")
    with Session(cache_dir=tmp_path) as warm:
        assert bench(warm) == expected
        snapshot = warm.metrics()
    assert snapshot.counters["cache.corrupt"] == 1
    assert (snapshot.hits, snapshot.executed) == (1, 1)
