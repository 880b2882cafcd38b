"""Table/figure builders: regenerate every row the paper reports.

Each builder takes the measured :class:`~repro.eval.runner.BenchmarkResult`
objects and prints the same rows as the paper's Table 2, Table 3 and
Figure 8, side by side with the published values, plus the shape checks
(orderings and rough factors) that define reproduction success.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from . import paper_data
from .paper_data import DATAFLOW_FLOWS, FLOWS
from .runner import BenchmarkResult


@dataclass
class TableRow:
    benchmark: str
    values: dict[str, float]
    paper: dict[str, float]


@dataclass
class Table:
    title: str
    rows: list[TableRow] = field(default_factory=list)

    def geomean_row(self) -> TableRow:
        values = {
            flow: paper_data.geomean([row.values[flow] for row in self.rows])
            for flow in FLOWS
        }
        paper = {
            flow: paper_data.geomean([row.paper[flow] for row in self.rows])
            for flow in FLOWS
        }
        return TableRow("geomean", values, paper)

    def render(self) -> str:
        lines = [self.title, "=" * len(self.title)]
        header = f"{'benchmark':14s}" + "".join(
            f"{flow + ' (meas/paper)':>28s}" for flow in FLOWS
        )
        lines.append(header)
        for row in self.rows + [self.geomean_row()]:
            cells = []
            for flow in FLOWS:
                measured, published = row.values[flow], row.paper[flow]
                cells.append(f"{measured:>13.4g}/{published:<12.4g}")
            lines.append(f"{row.benchmark:14s}" + " ".join(cells))
        return "\n".join(lines)


def build_table(
    title: str,
    results: Mapping[str, BenchmarkResult],
    measure: Callable,
    paper_table: Mapping[str, Mapping[str, float]],
) -> Table:
    table = Table(title)
    for name in paper_data.BENCHMARKS:
        if name not in results:
            continue
        result = results[name]
        table.rows.append(
            TableRow(
                benchmark=name,
                values={flow: float(measure(result[flow])) for flow in FLOWS},
                paper={flow: float(paper_table[name][flow]) for flow in FLOWS},
            )
        )
    return table


def cycle_table(results: Mapping[str, BenchmarkResult]) -> Table:
    """Table 2, cycle counts."""
    return build_table(
        "Table 2a — cycle count", results, lambda fr: fr.cycles, paper_data.PAPER_CYCLES
    )


def clock_table(results: Mapping[str, BenchmarkResult]) -> Table:
    """Table 2, clock period."""
    return build_table(
        "Table 2b — clock period (ns)",
        results,
        lambda fr: fr.area.clock_period,
        paper_data.PAPER_CLOCK_PERIOD,
    )


def exec_time_table(results: Mapping[str, BenchmarkResult]) -> Table:
    """Table 2, execution time."""
    return build_table(
        "Table 2c — execution time (ns)",
        results,
        lambda fr: fr.execution_time,
        paper_data.PAPER_EXEC_TIME,
    )


def lut_table(results: Mapping[str, BenchmarkResult]) -> Table:
    return build_table("Table 3a — LUTs", results, lambda fr: fr.area.luts, paper_data.PAPER_LUTS)


def ff_table(results: Mapping[str, BenchmarkResult]) -> Table:
    return build_table("Table 3b — FFs", results, lambda fr: fr.area.ffs, paper_data.PAPER_FFS)


def dsp_table(results: Mapping[str, BenchmarkResult]) -> Table:
    return build_table("Table 3c — DSPs", results, lambda fr: fr.area.dsps, paper_data.PAPER_DSPS)


def figure8_series(results: Mapping[str, BenchmarkResult]) -> dict[str, dict[str, float]]:
    """Figure 8: per-benchmark execution time normalised to DF-OoO.

    Returns ``{benchmark: {flow: relative_time}}`` — the series the paper
    plots (values < 1 are faster than DF-OoO).
    """
    series: dict[str, dict[str, float]] = {}
    for name, result in results.items():
        base = result["DF-OoO"].execution_time
        series[name] = {
            flow: result[flow].execution_time / base if base else float("nan")
            for flow in FLOWS
        }
    return series


def render_figure8(results: Mapping[str, BenchmarkResult]) -> str:
    series = figure8_series(results)
    lines = ["Figure 8 — execution time relative to DF-OoO (lower is better)"]
    lines.append(f"{'benchmark':14s}" + "".join(f"{flow:>12s}" for flow in FLOWS))
    for name in paper_data.BENCHMARKS:
        if name not in series:
            continue
        row = series[name]
        lines.append(f"{name:14s}" + "".join(f"{row[flow]:>12.3f}" for flow in FLOWS))
    return "\n".join(lines)


@dataclass
class ShapeCheck:
    """One qualitative claim from the paper, tested on measured data."""

    description: str
    holds: bool
    detail: str = ""


def shape_checks(results: Mapping[str, BenchmarkResult]) -> list[ShapeCheck]:
    """The paper's headline claims, evaluated on the measured numbers."""
    checks: list[ShapeCheck] = []

    def geomean_exec(flow: str) -> float:
        return paper_data.geomean(
            [results[n][flow].execution_time for n in results]
        )

    if results:
        g, io, v, ooo = (
            geomean_exec("GRAPHITI"),
            geomean_exec("DF-IO"),
            geomean_exec("Vericert"),
            geomean_exec("DF-OoO"),
        )
        checks.append(
            ShapeCheck(
                "Graphiti beats the in-order flow (paper: 2.1x geomean)",
                io / g > 1.3,
                f"measured {io / g:.2f}x",
            )
        )
        checks.append(
            ShapeCheck(
                "Graphiti beats Vericert (paper: 5.8x geomean)",
                v / g > 1.5,
                f"measured {v / g:.2f}x",
            )
        )
        checks.append(
            ShapeCheck(
                "Graphiti is on par with unverified DF-OoO (within 2x)",
                0.5 < g / ooo < 2.0,
                f"measured ratio {g / ooo:.2f}",
            )
        )
    if "bicg" in results:
        bicg = results["bicg"]
        checks.append(
            ShapeCheck(
                "bicg: Graphiti refuses the rewrite and matches DF-IO",
                bicg["GRAPHITI"].cycles == bicg["DF-IO"].cycles
                and bicg["GRAPHITI"].refused_loops > 0,
                f"GRAPHITI {bicg['GRAPHITI'].cycles} vs DF-IO {bicg['DF-IO'].cycles}",
            )
        )
        checks.append(
            ShapeCheck(
                "bicg: DF-OoO reorders the in-body stores (the found bug)",
                not bicg["DF-OoO"].stores_in_order,
                f"stores_in_order={bicg['DF-OoO'].stores_in_order}",
            )
        )
    if "gsum-single" in results:
        single = results["gsum-single"]
        checks.append(
            ShapeCheck(
                "gsum-single does not benefit from tagging",
                single["GRAPHITI"].cycles >= single["DF-IO"].cycles,
                f"GRAPHITI {single['GRAPHITI'].cycles} vs DF-IO {single['DF-IO'].cycles}",
            )
        )
    for name, result in results.items():
        checks.append(
            ShapeCheck(
                f"{name}: tagged circuits cost more FFs than DF-IO"
                if name != "bicg"
                else f"{name}: refused circuit matches DF-IO area",
                (result["GRAPHITI"].area.ffs >= result["DF-IO"].area.ffs),
                f"GRAPHITI {result['GRAPHITI'].area.ffs} vs DF-IO {result['DF-IO'].area.ffs}",
            )
        )
        checks.append(
            ShapeCheck(
                f"{name}: Vericert is the area winner",
                result["Vericert"].area.luts < result["DF-IO"].area.luts,
                f"Vericert {result['Vericert'].area.luts} vs DF-IO {result['DF-IO'].area.luts} LUTs",
            )
        )
        checks.append(
            ShapeCheck(
                f"{name}: Vericert has the best clock period",
                result["Vericert"].area.clock_period
                <= min(result[f].area.clock_period for f in DATAFLOW_FLOWS),
                f"Vericert {result['Vericert'].area.clock_period}ns",
            )
        )
    return checks


def full_report(results: Mapping[str, BenchmarkResult]) -> str:
    """Everything: Tables 2–3, Figure 8 and the shape checks."""
    parts = [
        cycle_table(results).render(),
        clock_table(results).render(),
        exec_time_table(results).render(),
        lut_table(results).render(),
        ff_table(results).render(),
        dsp_table(results).render(),
        render_figure8(results),
        "",
        "Shape checks",
        "============",
    ]
    for check in shape_checks(results):
        status = "PASS" if check.holds else "FAIL"
        parts.append(f"[{status}] {check.description} — {check.detail}")
    return "\n\n".join(parts[:7]) + "\n" + "\n".join(parts[7:])
