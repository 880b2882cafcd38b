"""Regenerate Table 2: cycle count, clock period, execution time.

Run with:  pytest benchmarks/bench_table2.py --benchmark-only -s
"""

import pytest

from repro.eval import paper_data
from repro import Session
from repro.eval.report import clock_table, cycle_table, exec_time_table

from conftest import get_results


@pytest.mark.benchmark(group="table2")
@pytest.mark.parametrize("name", paper_data.BENCHMARKS)
def test_benchmark_all_flows(benchmark, name):
    """Time one full four-flow evaluation of each benchmark (one round:
    these are minutes-scale simulations, not microbenchmarks)."""
    cache = get_results()

    def run():
        if name in cache:
            return cache[name]
        with Session(use_cache=False) as session:
            cache[name] = session.bench(name=name)
        return cache[name]

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    # Shape assertions from the paper's Table 2 narrative.
    if name == "bicg":
        assert result["GRAPHITI"].cycles == result["DF-IO"].cycles
    elif name == "gsum-single":
        assert result["GRAPHITI"].cycles >= result["DF-IO"].cycles
    else:
        assert result["GRAPHITI"].cycles < result["DF-IO"].cycles
    assert result["Vericert"].cycles > result["DF-IO"].cycles


def test_print_table2(results, once):
    print()
    print(cycle_table(results).render())
    print()
    print(clock_table(results).render())
    print()
    print(exec_time_table(results).render())

    # Headline factors (paper: 2.1x over DF-IO, 5.8x over Vericert).
    geomean = paper_data.geomean
    graphiti = geomean([results[n]["GRAPHITI"].execution_time for n in results])
    df_io = geomean([results[n]["DF-IO"].execution_time for n in results])
    vericert = geomean([results[n]["Vericert"].execution_time for n in results])
    print()
    print(f"geomean speedup over DF-IO:    {df_io / graphiti:.2f}x (paper: 2.1x)")
    print(f"geomean speedup over Vericert: {vericert / graphiti:.2f}x (paper: 5.8x)")
    assert df_io / graphiti > 1.3
    assert vericert / graphiti > 1.5
