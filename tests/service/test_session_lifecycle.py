"""Session lifecycle (close / context manager) and keyword-only dispatch."""

import pytest

from repro import Session
from repro.benchmarks import matvec
from repro.errors import GraphitiError
from repro.exec.executor import Executor, ExecutorError, WorkUnit
from repro.hls.frontend import compile_program

SPEC = [("repro.rewriting.rules.combine", "mux_combine", {})]


def _compiled(session):
    return compile_program(matvec(4), session.env).kernels[0]


# -- close() / context manager ------------------------------------------------


def test_context_manager_closes():
    with Session(use_cache=False) as session:
        assert not session.closed
    assert session.closed
    assert session.executor.closed


def test_close_is_idempotent():
    session = Session(use_cache=False)
    session.close()
    session.close()
    assert session.closed


@pytest.mark.parametrize(
    "call",
    [
        lambda s, ck: s.transform(graph=ck.graph, mark=ck.mark),
        lambda s, ck: s.simulate(graph_or_kernel=ck, stimuli=matvec(4).arrays),
        lambda s, ck: s.bench(name="matvec"),
        lambda s, ck: s.sat_check(SPEC),
        lambda s, ck: s.check_obligations(SPEC),
    ],
)
def test_closed_session_refuses_work(call):
    session = Session(use_cache=False)
    ck = _compiled(session)
    session.close()
    with pytest.raises(GraphitiError, match="closed"):
        call(session, ck)


def test_metrics_still_readable_after_close():
    session = Session(use_cache=False)
    session.check_obligations(SPEC)
    session.close()
    assert session.metrics().units >= 1  # inspection is not work dispatch


# -- keyword-only dispatch ----------------------------------------------------


def test_positional_transform_is_a_typeerror():
    with Session(use_cache=False) as session:
        ck = _compiled(session)
        with pytest.raises(TypeError, match="positional"):
            session.transform(ck.graph, ck.mark)
        assert session.transform(graph=ck.graph, mark=ck.mark).transformed


def test_positional_simulate_is_a_typeerror():
    program = matvec(4)
    with Session(use_cache=False) as session:
        ck = _compiled(session)
        with pytest.raises(TypeError, match="positional"):
            session.simulate(ck, stimuli=program.arrays)
        assert session.simulate(graph_or_kernel=ck, stimuli=program.arrays).cycles > 0


def test_positional_bench_is_a_typeerror():
    with Session(use_cache=False) as session:
        with pytest.raises(TypeError, match="positional"):
            session.bench("matvec")


def test_keyword_calls_do_not_warn(recwarn):
    import warnings

    with Session(use_cache=False) as session:
        ck = _compiled(session)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session.transform(graph=ck.graph, mark=ck.mark)


def test_mixing_positional_and_keyword_is_an_error():
    with Session(use_cache=False) as session:
        ck = _compiled(session)
        with pytest.raises(TypeError, match="positional"):
            session.transform(ck.graph, graph=ck.graph, mark=ck.mark)


def test_too_many_positionals_is_an_error():
    with Session(use_cache=False) as session:
        ck = _compiled(session)
        with pytest.raises(TypeError, match="positional"):
            session.transform(ck.graph, ck.mark, "fixpoint")


def test_missing_required_keywords_raise_typeerror():
    with Session(use_cache=False) as session:
        with pytest.raises(TypeError, match="graph="):
            session.transform()
        with pytest.raises(TypeError, match="graph_or_kernel="):
            session.simulate(stimuli={})
        with pytest.raises(TypeError, match="name="):
            session.bench()


# -- the persistent executor pool --------------------------------------------


def test_executor_pool_persists_across_runs():
    units = [
        WorkUnit(uid=f"u{i}", fn="repro.exec.workers:eval_benchmark", payload={})
        for i in range(0)
    ]
    executor = Executor(jobs=2)
    try:
        assert executor._pool is None
        executor.run(units)  # empty batch: still no pool
        assert executor._pool is None
        pool = executor._ensure_pool()
        assert executor._ensure_pool() is pool  # reused, not rebuilt
    finally:
        executor.close()
    assert executor.closed and executor._pool is None


def test_closed_executor_refuses_batches():
    executor = Executor(jobs=1)
    executor.close()
    with pytest.raises(ExecutorError, match="closed"):
        executor.run([])


def test_executor_context_manager():
    with Executor(jobs=1) as executor:
        assert not executor.closed
    assert executor.closed
