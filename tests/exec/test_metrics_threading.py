"""Parallel sessions count every work unit exactly once (jobs > 1)."""

from repro.api import Session
from repro.benchmarks import matvec


class TestConcurrentRecording:
    def test_parallel_session_counts_every_unit(self):
        """With jobs > 1 no unit's metric is lost or double-counted."""
        session = Session(jobs=2, use_cache=False)
        session.bench_many(
            ["matvec", "fuzz"], {"matvec": matvec(4), "fuzz": matvec(3)}
        )
        snapshot = session.metrics()
        assert snapshot.units == 2  # one unit per benchmark
        assert snapshot.executed == 2
        assert snapshot.hits == 0
