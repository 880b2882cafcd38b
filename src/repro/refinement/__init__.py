"""Refinement checking: the executable metatheory of sections 4.4 and 5."""

from .checker import (
    RefinementReport,
    check_rewrite_obligation,
    io_stimuli,
    refines,
    uniform_stimuli,
)
from .codec import from_bytes as certificate_from_bytes
from .codec import to_bytes as certificate_to_bytes
from .sat import (
    CnfFormula,
    CrossCheckReport,
    SatResult,
    SatVerdict,
    check_refinement_sat,
    cross_check_obligation,
    encode_refinement,
    solve as solve_cnf,
)
from .simulation import (
    CERTIFICATE_FORMAT,
    ReplayWitnesses,
    SimulationCertificate,
    SimulationResult,
    Violation,
    encode_state,
    find_weak_simulation,
    recheck_certificate,
)
from .traces import can_perform, enumerate_traces, trace_inclusion

__all__ = [
    "RefinementReport",
    "check_rewrite_obligation",
    "io_stimuli",
    "refines",
    "uniform_stimuli",
    "certificate_from_bytes",
    "certificate_to_bytes",
    "CnfFormula",
    "CrossCheckReport",
    "SatResult",
    "SatVerdict",
    "check_refinement_sat",
    "cross_check_obligation",
    "encode_refinement",
    "solve_cnf",
    "CERTIFICATE_FORMAT",
    "ReplayWitnesses",
    "SimulationCertificate",
    "SimulationResult",
    "Violation",
    "encode_state",
    "find_weak_simulation",
    "recheck_certificate",
    "can_perform",
    "enumerate_traces",
    "trace_inclusion",
]
