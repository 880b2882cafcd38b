"""Evaluation harness: Tables 2/3, Figure 8, and section 6.3 statistics."""

from . import paper_data
from .ablation import SteeringComparison, TagSweepPoint, steering_comparison, tag_sweep
from .devstats import DevStats, measure
from .report import (
    ShapeCheck,
    clock_table,
    cycle_table,
    dsp_table,
    exec_time_table,
    ff_table,
    figure8_series,
    full_report,
    lut_table,
    render_figure8,
    shape_checks,
)
from .runner import BenchmarkResult, FlowResult

__all__ = [
    "paper_data",
    "SteeringComparison",
    "TagSweepPoint",
    "steering_comparison",
    "tag_sweep",
    "DevStats",
    "measure",
    "ShapeCheck",
    "clock_table",
    "cycle_table",
    "dsp_table",
    "exec_time_table",
    "ff_table",
    "figure8_series",
    "full_report",
    "lut_table",
    "render_figure8",
    "shape_checks",
    "BenchmarkResult",
    "FlowResult",
]
