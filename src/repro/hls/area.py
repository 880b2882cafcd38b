"""Technology model: latency, combinational delay, and area per component.

This replaces Vivado + the Kintex-7 target in the paper's methodology.  The
table is calibrated so the evaluation reproduces the paper's *orderings and
factors*, not its absolute numbers:

* pipelined FP units carry multi-cycle latency (what makes sequential inner
  loops slow and pipelined out-of-order loops fast);
* tagged steering and the Tagger/Untagger have larger combinational delay,
  which is why tagged circuits close at a worse clock period (Table 2);
* the Tagger's flip-flop cost grows with the tag count — 50 tags is what
  blows up matvec's FF count in Table 3;
* DSP usage: an FP multiplier costs 5 DSPs, an integer multiplier 1, all
  else 0 — matching the per-benchmark DSP totals in Table 3, including
  Vericert's constant 5 from sharing a single FP multiplier.

Clock period is estimated as the largest per-component combinational delay
in the netlist (every channel hop is registered), plus a wiring margin that
grows slowly with design size.  Cycle counts are not estimated here: they
come from simulating the circuit (:mod:`repro.sim`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..core.exprhigh import ExprHigh


@dataclass(frozen=True)
class OpProfile:
    """Latency (cycles), delay (ns) and area of one operation."""

    latency: int
    delay: float
    luts: int
    ffs: int
    dsps: int


#: Profiles for functional operations, keyed by the base op name.
OP_PROFILES: dict[str, OpProfile] = {
    # integer
    "add": OpProfile(1, 2.3, 32, 32, 0),
    "sub": OpProfile(1, 2.3, 32, 32, 0),
    "mul": OpProfile(2, 3.8, 40, 64, 1),
    "mod": OpProfile(12, 6.3, 180, 220, 0),
    "lt": OpProfile(1, 2.1, 18, 8, 0),
    "le": OpProfile(1, 2.1, 18, 8, 0),
    "ne": OpProfile(1, 1.9, 16, 8, 0),
    "eq": OpProfile(1, 1.9, 16, 8, 0),
    "ne0": OpProfile(1, 1.6, 10, 4, 0),
    "eq0": OpProfile(1, 1.6, 10, 4, 0),
    "not": OpProfile(1, 1.2, 2, 2, 0),
    "and": OpProfile(1, 1.4, 4, 4, 0),
    "or": OpProfile(1, 1.4, 4, 4, 0),
    "select": OpProfile(1, 2.4, 34, 34, 0),
    # floating point (pipelined units)
    "fadd": OpProfile(7, 5.6, 220, 360, 0),
    "fsub": OpProfile(7, 5.6, 220, 360, 0),
    "fmul": OpProfile(4, 5.6, 90, 160, 5),
    # memory ports
    "load": OpProfile(2, 4.4, 60, 70, 0),
    "store": OpProfile(1, 4.4, 50, 40, 0),
}

#: Structural / steering component profiles, keyed by component type.
#: Latency 0 marks purely combinational elastic components: their outputs
#: propagate within the cycle (registers live in the channel buffers), which
#: is what keeps a fast-token-delivery condition loop tight.
COMPONENT_PROFILES: dict[str, OpProfile] = {
    "Fork": OpProfile(0, 2.6, 6, 10, 0),
    "Join": OpProfile(0, 3.4, 12, 18, 0),
    "Split": OpProfile(0, 2.8, 8, 12, 0),
    "Mux": OpProfile(1, 3.9, 22, 26, 0),
    "Branch": OpProfile(1, 3.6, 18, 22, 0),
    "Merge": OpProfile(1, 3.7, 20, 24, 0),
    "CMerge": OpProfile(1, 4.0, 26, 30, 0),
    "Init": OpProfile(0, 2.4, 8, 10, 0),
    "Buffer": OpProfile(1, 2.2, 4, 34, 0),
    "Sink": OpProfile(0, 0.6, 1, 0, 0),
    "Source": OpProfile(0, 0.6, 1, 0, 0),
    "Constant": OpProfile(0, 1.2, 4, 34, 0),
    "Driver": OpProfile(1, 3.0, 40, 60, 0),
    "Collector": OpProfile(1, 3.0, 40, 60, 0),
    "Store": OpProfile(1, 4.4, 50, 40, 0),
    "Pure": OpProfile(1, 3.0, 20, 20, 0),
    "Reorg": OpProfile(0, 1.8, 6, 8, 0),
}

#: Extra combinational delay on components operating on tagged values: the
#: tag comparison/steering logic lengthens the critical path.
TAGGED_DELAY_PENALTY = 1.5

#: Tagger base profile; FF cost additionally grows with tags × payload bits.
TAGGER_PROFILE = OpProfile(1, 7.0, 60, 40, 0)
TAGGER_FFS_PER_TAG = 70
TAGGER_LUTS_PER_TAG = 14

#: Extra flip-flops per additional channel buffer slot (payload register +
#: handshake state).
FFS_PER_BUFFER_SLOT = 34
LUTS_PER_BUFFER_SLOT = 4


def base_op(op: str) -> str:
    """The profile key of a (possibly partially-applied or load) operator.

    ``read.<array>`` operators are loads; ``op.kN.value`` operators keep the
    profile of their base op.
    """
    if op.startswith("read."):
        return "load"
    return op.split(".", 1)[0]


def op_profile(op: str) -> OpProfile:
    profile = OP_PROFILES.get(base_op(op))
    if profile is None:
        return OpProfile(1, 3.0, 20, 20, 0)
    return profile


def latency_of(typ: str, params: Mapping[str, object]) -> int:
    """Cycle latency of one component instance (simulator hook).

    Zero means combinational: the simulator propagates the token within the
    same cycle (consumers later in the topological sweep see it).
    """
    if typ == "Operator":
        return op_profile(str(params.get("op", ""))).latency
    if typ == "Tagger":
        return TAGGER_PROFILE.latency
    profile = COMPONENT_PROFILES.get(typ)
    return profile.latency if profile else 1


@dataclass
class AreaReport:
    """LUT/FF/DSP totals plus the estimated clock period."""

    luts: int = 0
    ffs: int = 0
    dsps: int = 0
    clock_period: float = 0.0

    def execution_time(self, cycles: int) -> float:
        return cycles * self.clock_period

    def to_dict(self) -> dict:
        return {
            "luts": int(self.luts),
            "ffs": int(self.ffs),
            "dsps": int(self.dsps),
            "clock_period": float(self.clock_period),
        }

    @staticmethod
    def from_dict(data: Mapping) -> "AreaReport":
        return AreaReport(
            luts=int(data["luts"]),
            ffs=int(data["ffs"]),
            dsps=int(data["dsps"]),
            clock_period=float(data["clock_period"]),
        )


def analyze(
    graph: ExprHigh,
    extra_buffer_slots: int = 0,
    wiring_margin: float = 0.0006,
) -> AreaReport:
    """Compute the area/timing report for one circuit.

    *extra_buffer_slots* is the number of channel slots buffer placement
    added beyond the default one per edge (each costs registers).
    The clock period is the worst per-component delay plus a wiring margin
    proportional to design size — larger designs route worse.
    """
    report = AreaReport()
    worst_delay = 0.0
    for spec in graph.nodes.values():
        tagged = bool(spec.param("tagged", False))
        if spec.typ == "Operator":
            profile = op_profile(str(spec.param("op", "")))
        elif spec.typ == "Tagger":
            tags = int(spec.param("tags", 4))
            profile = OpProfile(
                TAGGER_PROFILE.latency,
                TAGGER_PROFILE.delay + 0.012 * tags,
                TAGGER_PROFILE.luts + TAGGER_LUTS_PER_TAG * tags,
                TAGGER_PROFILE.ffs + TAGGER_FFS_PER_TAG * tags,
                0,
            )
        else:
            profile = COMPONENT_PROFILES.get(spec.typ, OpProfile(1, 3.0, 20, 20, 0))
        delay = profile.delay + (TAGGED_DELAY_PENALTY if tagged else 0.0)
        worst_delay = max(worst_delay, delay)
        report.luts += profile.luts
        report.ffs += profile.ffs
        report.dsps += profile.dsps
    report.luts += LUTS_PER_BUFFER_SLOT * extra_buffer_slots
    report.ffs += FFS_PER_BUFFER_SLOT * extra_buffer_slots
    report.clock_period = round(worst_delay + wiring_margin * report.luts, 3)
    return report
