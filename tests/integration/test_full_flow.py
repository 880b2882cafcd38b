"""Integration: every benchmark through all four flows, scaled down.

These tests exercise the complete paper pipeline — front end, verified
rewriting, DF-OoO baseline, buffer placement, cycle simulation, static
scheduling — on small instances of all six benchmarks, and assert the
evaluation section's qualitative claims.
"""

import numpy as np
import pytest

from repro.benchmarks import bicg, gemm, gsum_many, gsum_single, matvec, mvt
from repro.api import Session

SMALL = {
    "matvec": lambda: matvec(8),
    "mvt": lambda: mvt(6),
    "bicg": lambda: bicg(6),
    "gemm": lambda: gemm(5),
    "gsum-single": lambda: gsum_single(48),
    "gsum-many": lambda: gsum_many(3, 24),
}


@pytest.fixture(scope="module")
def results():
    programs = {name: factory() for name, factory in SMALL.items()}
    return Session(jobs=1, use_cache=False).bench_many(list(programs), programs)


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_df_io_is_correct(self, results, name):
        assert results[name]["DF-IO"].correct
        assert results[name]["DF-IO"].stores_in_order

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_graphiti_is_correct(self, results, name):
        assert results[name]["GRAPHITI"].correct
        assert results[name]["GRAPHITI"].stores_in_order

    @pytest.mark.parametrize("name", sorted(set(SMALL) - {"bicg"}))
    def test_df_ooo_correct_on_pure_loops(self, results, name):
        assert results[name]["DF-OoO"].correct


class TestBicgBug:
    """Section 6.2: the bug Graphiti's purity check catches."""

    def test_graphiti_refuses_bicg(self, results):
        assert results["bicg"]["GRAPHITI"].refused_loops == 1

    def test_graphiti_matches_df_io_on_bicg(self, results):
        assert results["bicg"]["GRAPHITI"].cycles == results["bicg"]["DF-IO"].cycles
        assert results["bicg"]["GRAPHITI"].area.luts == results["bicg"]["DF-IO"].area.luts

    def test_df_ooo_reorders_bicg_stores(self, results):
        assert not results["bicg"]["DF-OoO"].stores_in_order

    def test_df_ooo_corrupts_bicg_memory(self, results):
        # The in-body store is a read-modify-write on s[j]; reordering
        # across outer iterations loses updates.
        assert not results["bicg"]["DF-OoO"].correct


class TestPerformanceShape:
    @pytest.mark.parametrize("name", ["matvec", "mvt", "gemm", "gsum-many"])
    def test_out_of_order_beats_in_order(self, results, name):
        assert results[name]["GRAPHITI"].cycles < results[name]["DF-IO"].cycles
        assert results[name]["DF-OoO"].cycles < results[name]["DF-IO"].cycles

    def test_gsum_single_gains_nothing(self, results):
        assert results["gsum-single"]["GRAPHITI"].cycles >= results["gsum-single"]["DF-IO"].cycles

    @pytest.mark.parametrize("name", ["matvec", "mvt", "gemm"])
    def test_vericert_has_highest_cycle_count(self, results, name):
        vericert = results[name]["Vericert"].cycles
        assert vericert > results[name]["DF-IO"].cycles

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_vericert_has_best_clock(self, results, name):
        flows = results[name]
        assert flows["Vericert"].area.clock_period <= min(
            flows[f].area.clock_period for f in ("DF-IO", "DF-OoO", "GRAPHITI")
        )

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_vericert_has_least_area(self, results, name):
        flows = results[name]
        assert flows["Vericert"].area.luts < flows["DF-IO"].area.luts
        assert flows["Vericert"].area.luts < flows["GRAPHITI"].area.luts


class TestAreaShape:
    @pytest.mark.parametrize("name", ["matvec", "mvt", "gemm", "gsum-many"])
    def test_tagging_costs_area(self, results, name):
        flows = results[name]
        assert flows["GRAPHITI"].area.ffs > flows["DF-IO"].area.ffs
        assert flows["GRAPHITI"].area.luts > flows["DF-IO"].area.luts

    @pytest.mark.parametrize("name", ["matvec", "mvt", "gemm", "gsum-many"])
    def test_tagging_worsens_clock(self, results, name):
        flows = results[name]
        assert flows["GRAPHITI"].area.clock_period > flows["DF-IO"].area.clock_period

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_dsp_counts_equal_across_dataflow_flows(self, results, name):
        flows = results[name]
        assert flows["DF-IO"].area.dsps == flows["DF-OoO"].area.dsps == flows["GRAPHITI"].area.dsps

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_vericert_dsps_from_shared_multiplier(self, results, name):
        assert results[name]["Vericert"].area.dsps == 5


class TestGraphitiVsDFOoO:
    @pytest.mark.parametrize("name", ["matvec", "gemm"])
    def test_parity_with_unverified_flow(self, results, name):
        """Within 2x of the unverified circuits (the paper's parity claim)."""
        graphiti = results[name]["GRAPHITI"].cycles
        ooo = results[name]["DF-OoO"].cycles
        assert graphiti <= 2 * ooo

    def test_graphiti_rewrites_were_applied(self, results):
        for name in ("matvec", "gemm", "mvt"):
            assert results[name]["GRAPHITI"].rewrite_steps > 10
