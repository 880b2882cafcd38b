"""Evaluation harness: Tables 2/3, Figure 8, and section 6.3 statistics.

The exports are lazy (see :mod:`repro._lazy`): importing this package
loads none of them.  :mod:`~repro.eval.paper_data` (the paper's numbers,
the benchmark names and the flow names) is plain data, so the CLI reads
its ``--flow`` choices from it without loading the runner, which brings
in numpy, the front end (:mod:`repro.hls`) and the simulator
(:mod:`repro.sim`).  Each name imports its defining module on first
access.
"""

from .._lazy import lazy_exports

#: Each public name and the module that defines it.
_EXPORTS = {
    "paper_data": ".paper_data",
    "SteeringComparison": ".ablation",
    "TagSweepPoint": ".ablation",
    "steering_comparison": ".ablation",
    "tag_sweep": ".ablation",
    "DevStats": ".devstats",
    "measure": ".devstats",
    "ShapeCheck": ".report",
    "clock_table": ".report",
    "cycle_table": ".report",
    "dsp_table": ".report",
    "exec_time_table": ".report",
    "ff_table": ".report",
    "figure8_series": ".report",
    "full_report": ".report",
    "lut_table": ".report",
    "render_figure8": ".report",
    "shape_checks": ".report",
    "BenchmarkResult": ".runner",
    "FlowResult": ".runner",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
