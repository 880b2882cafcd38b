"""Refinement checking: the executable metatheory of sections 4.4 and 5.

The exports are lazy (see :mod:`repro._lazy`): discharging obligations
loads the game solver and the certificate codec, never the SAT oracle
(:mod:`~repro.refinement.sat`), which loads on first access to one of
its names.
"""

from .._lazy import lazy_exports

#: Each public name and the module that defines it.
_EXPORTS = {
    "RefinementReport": ".checker",
    "check_rewrite_obligation": ".checker",
    "io_stimuli": ".checker",
    "refines": ".checker",
    "uniform_stimuli": ".checker",
    "certificate_from_bytes": ".codec:from_bytes",
    "certificate_to_bytes": ".codec:to_bytes",
    "CnfFormula": ".sat",
    "CrossCheckReport": ".sat",
    "SatResult": ".sat",
    "SatVerdict": ".sat",
    "check_refinement_sat": ".sat",
    "cross_check_obligation": ".sat",
    "encode_refinement": ".sat",
    "solve_cnf": ".sat:solve",
    "CERTIFICATE_FORMAT": ".simulation",
    "SimulationCertificate": ".simulation",
    "SimulationResult": ".simulation",
    "Violation": ".simulation",
    "encode_state": ".simulation",
    "find_weak_simulation": ".simulation",
    "recheck_certificate": ".simulation",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
