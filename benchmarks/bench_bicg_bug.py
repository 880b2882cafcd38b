"""The section 6.2 finding: the bicg miscompilation, reproduced.

Graphiti's purity phase refuses to reorder a loop whose body stores to
memory; DF-OoO transforms it anyway and the write order (and, because the
store is a read-modify-write, the final memory) diverges from the
sequential program.

Run with:  pytest benchmarks/bench_bicg_bug.py --benchmark-only -s
"""

import numpy as np
import pytest

from repro import Session
from repro.benchmarks import bicg
from repro.hls.ir import run_program


@pytest.fixture(scope="module")
def bicg_result(results):
    return results["bicg"]


def test_graphiti_refuses_the_transform(bicg_result, once):
    assert bicg_result["GRAPHITI"].refused_loops == 1


def test_graphiti_output_identical_to_df_io(bicg_result, once):
    assert bicg_result["GRAPHITI"].cycles == bicg_result["DF-IO"].cycles
    assert bicg_result["GRAPHITI"].area.luts == bicg_result["DF-IO"].area.luts
    assert bicg_result["GRAPHITI"].area.ffs == bicg_result["DF-IO"].area.ffs


def test_df_ooo_breaks_store_order(bicg_result, once):
    assert not bicg_result["DF-OoO"].stores_in_order


def test_df_ooo_corrupts_memory(bicg_result, once):
    assert not bicg_result["DF-OoO"].correct


def test_df_ooo_is_fast_but_wrong(bicg_result, once):
    """The original evaluation reported a large bicg speedup — which this
    reproduction shows was obtained from an unsound transformation."""
    assert bicg_result["DF-OoO"].cycles < bicg_result["DF-IO"].cycles / 2
    assert not bicg_result["DF-OoO"].correct


def test_print_divergence(results, once):
    program = bicg(6)
    reference = run_program(program, program.copy_arrays())
    with Session(use_cache=False) as session:
        result = session.bench(name="bicg", program=bicg(6))
    print()
    print("bicg, n=6: s[] after the sweep")
    print("  reference :", np.round(reference.arrays["s"], 3))
    print(
        "  DF-OoO    : correct =", result["DF-OoO"].correct,
        "| stores in order =", result["DF-OoO"].stores_in_order,
    )
    print(
        "  GRAPHITI  : correct =", result["GRAPHITI"].correct,
        "| refused loops =", result["GRAPHITI"].refused_loops,
    )
