"""Table 2: cycle count, clock period, and execution time."""

from __future__ import annotations

from typing import Iterable, Mapping

from . import paper_data
from .report import clock_table, cycle_table, exec_time_table
from .runner import BenchmarkResult


def collect(benchmarks: Iterable[str] = paper_data.BENCHMARKS) -> dict[str, BenchmarkResult]:
    """Run the listed benchmarks through all four flows."""
    from ..api import Session

    return Session(use_cache=False).bench_many(list(benchmarks))


def render(results: Mapping[str, BenchmarkResult]) -> str:
    """Render the three Table 2 sub-tables."""
    return "\n\n".join(
        table.render()
        for table in (cycle_table(results), clock_table(results), exec_time_table(results))
    )


def main() -> None:
    print(render(collect()))


if __name__ == "__main__":
    main()
