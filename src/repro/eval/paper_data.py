"""The paper's reported numbers (Tables 2 and 3), kept for comparison.

EXPERIMENTS.md and the benchmark harness print measured-vs-paper ratios
from these values.  Absolute agreement is not expected (our substrate is a
calibrated simulator, not a Kintex-7 flow); the *shape* — who wins, by
roughly what factor, where the exceptions fall — is the reproduction
target.
"""

from __future__ import annotations

BENCHMARKS = ("bicg", "gemm", "gsum-many", "gsum-single", "matvec", "mvt")
#: The flows that simulate a dataflow circuit, in report order.
DATAFLOW_FLOWS = ("DF-IO", "DF-OoO", "GRAPHITI")
#: Every flow the paper reports, in report order.
FLOWS = DATAFLOW_FLOWS + ("Vericert",)

#: Table 2 — cycle counts.
PAPER_CYCLES = {
    "bicg": {"DF-IO": 7936, "DF-OoO": 1000, "GRAPHITI": 7936, "Vericert": 44557},
    "gemm": {"DF-IO": 68825, "DF-OoO": 8278, "GRAPHITI": 8338, "Vericert": 252013},
    "gsum-many": {"DF-IO": 68523, "DF-OoO": 36537, "GRAPHITI": 34363, "Vericert": 118096},
    "gsum-single": {"DF-IO": 6703, "DF-OoO": 9234, "GRAPHITI": 9436, "Vericert": 18798},
    "matvec": {"DF-IO": 7936, "DF-OoO": 919, "GRAPHITI": 993, "Vericert": 25447},
    "mvt": {"DF-IO": 7940, "DF-OoO": 2044, "GRAPHITI": 2002, "Vericert": 46538},
}

#: Table 2 — clock periods (ns).
PAPER_CLOCK_PERIOD = {
    "bicg": {"DF-IO": 6.43, "DF-OoO": 11.27, "GRAPHITI": 6.43, "Vericert": 4.807},
    "gemm": {"DF-IO": 6.361, "DF-OoO": 8.631, "GRAPHITI": 12.439, "Vericert": 5.059},
    "gsum-many": {"DF-IO": 7.57, "DF-OoO": 8.052, "GRAPHITI": 7.388, "Vericert": 5.127},
    "gsum-single": {"DF-IO": 6.026, "DF-OoO": 8.937, "GRAPHITI": 8.421, "Vericert": 5.127},
    "matvec": {"DF-IO": 5.589, "DF-OoO": 8.628, "GRAPHITI": 7.114, "Vericert": 4.805},
    "mvt": {"DF-IO": 6.101, "DF-OoO": 8.31, "GRAPHITI": 7.45, "Vericert": 4.805},
}

#: Table 2 — execution times (ns).
PAPER_EXEC_TIME = {
    "bicg": {"DF-IO": 51028, "DF-OoO": 11270, "GRAPHITI": 51028, "Vericert": 214185},
    "gemm": {"DF-IO": 437796, "DF-OoO": 71447, "GRAPHITI": 103716, "Vericert": 1274934},
    "gsum-many": {"DF-IO": 518719, "DF-OoO": 294196, "GRAPHITI": 253874, "Vericert": 605478},
    "gsum-single": {"DF-IO": 40392, "DF-OoO": 82524, "GRAPHITI": 79461, "Vericert": 96377},
    "matvec": {"DF-IO": 44354, "DF-OoO": 7929, "GRAPHITI": 7064, "Vericert": 122273},
    "mvt": {"DF-IO": 48442, "DF-OoO": 16986, "GRAPHITI": 14915, "Vericert": 223615},
}

#: Table 3 — LUT counts.
PAPER_LUTS = {
    "bicg": {"DF-IO": 2051, "DF-OoO": 3229, "GRAPHITI": 2051, "Vericert": 838},
    "gemm": {"DF-IO": 3248, "DF-OoO": 5564, "GRAPHITI": 6282, "Vericert": 940},
    "gsum-many": {"DF-IO": 3028, "DF-OoO": 3867, "GRAPHITI": 4438, "Vericert": 1151},
    "gsum-single": {"DF-IO": 2648, "DF-OoO": 2541, "GRAPHITI": 3862, "Vericert": 1042},
    "matvec": {"DF-IO": 1400, "DF-OoO": 6027, "GRAPHITI": 6107, "Vericert": 613},
    "mvt": {"DF-IO": 2980, "DF-OoO": 5084, "GRAPHITI": 5656, "Vericert": 936},
}

#: Table 3 — FF counts.
PAPER_FFS = {
    "bicg": {"DF-IO": 2182, "DF-OoO": 2737, "GRAPHITI": 2182, "Vericert": 1302},
    "gemm": {"DF-IO": 2709, "DF-OoO": 3880, "GRAPHITI": 4908, "Vericert": 1484},
    "gsum-many": {"DF-IO": 3319, "DF-OoO": 3855, "GRAPHITI": 4546, "Vericert": 1381},
    "gsum-single": {"DF-IO": 3110, "DF-OoO": 3101, "GRAPHITI": 4283, "Vericert": 1342},
    "matvec": {"DF-IO": 1282, "DF-OoO": 6839, "GRAPHITI": 6680, "Vericert": 1137},
    "mvt": {"DF-IO": 2721, "DF-OoO": 4028, "GRAPHITI": 5179, "Vericert": 1386},
}

#: Table 3 — DSP counts.
PAPER_DSPS = {
    "bicg": {"DF-IO": 10, "DF-OoO": 10, "GRAPHITI": 10, "Vericert": 5},
    "gemm": {"DF-IO": 11, "DF-OoO": 11, "GRAPHITI": 11, "Vericert": 5},
    "gsum-many": {"DF-IO": 22, "DF-OoO": 22, "GRAPHITI": 22, "Vericert": 5},
    "gsum-single": {"DF-IO": 22, "DF-OoO": 22, "GRAPHITI": 22, "Vericert": 5},
    "matvec": {"DF-IO": 5, "DF-OoO": 5, "GRAPHITI": 5, "Vericert": 5},
    "mvt": {"DF-IO": 10, "DF-OoO": 10, "GRAPHITI": 10, "Vericert": 5},
}

#: Section 6.3 — rewriting statistics of the Lean development.
PAPER_DEV_STATS = {
    "matvec": {"nodes": 90, "rewrites": 1650, "seconds": 9.76},
    "gemm": {"nodes": 180, "rewrites": 4416, "seconds": 81.49},
}


def geomean(values) -> float:
    """Geometric mean, as used in the paper's summary rows."""
    import math

    values = [float(v) for v in values]
    if not values or any(v <= 0 for v in values):
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
