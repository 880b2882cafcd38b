"""Exception hierarchy for the Graphiti reproduction.

All library errors derive from :class:`GraphitiError` so callers can catch
anything raised by the library with one ``except`` clause while still being
able to discriminate the failure class.
"""

from __future__ import annotations


class GraphitiError(Exception):
    """Base class for all errors raised by this library."""


class PortError(GraphitiError):
    """A port name was malformed, duplicated, or missing."""


class GraphError(GraphitiError):
    """An ExprHigh / ExprLow graph was structurally invalid."""


class TypeCheckError(GraphitiError):
    """A graph failed the well-typedness check (section 6.3 of the paper)."""


class DotParseError(GraphitiError):
    """The dot input could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SemanticsError(GraphitiError):
    """A module combinator was applied to incompatible modules."""


class MatchError(GraphitiError):
    """A rewrite matcher could not locate its left-hand side."""


class RewriteError(GraphitiError):
    """A rewrite could not be applied to the located subgraph."""


class ResultSchemaError(GraphitiError):
    """A wire-format result dict was malformed: missing or unknown
    ``schema_version``, an unregistered ``kind``, or a field that does not
    round-trip.  Raised by :func:`repro.results.from_wire` and the
    ``from_dict`` constructors of the result types."""


class ServiceError(GraphitiError):
    """The verification service rejected a request or job (unknown kind,
    malformed parameters, queue overflow, lookup of a nonexistent job)."""


class CertificateError(GraphitiError):
    """A serialised simulation certificate was malformed, of the wrong
    format version, or failed its content-hash integrity check."""


class RefinementError(GraphitiError):
    """A refinement obligation failed (counterexample found)."""

    def __init__(self, message: str, counterexample: object | None = None):
        self.counterexample = counterexample
        super().__init__(message)


class NetlistError(GraphitiError):
    """A netlist document or structural-Verilog module could not be parsed
    or did not describe a well-formed dataflow graph."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class OracleDisagreement(GraphitiError):
    """The SAT oracle and the weak-simulation checker returned *definitive*
    but contradictory verdicts on the same obligation.  Carries both
    witnesses: the game-side evidence (a certificate dict or a violation
    dict) and the SAT-side evidence (the satisfying assignment or the
    refutation core summary)."""

    def __init__(self, message: str, game_witness: object = None, sat_witness: object = None):
        self.game_witness = game_witness
        self.sat_witness = sat_witness
        super().__init__(message)


class NotDualHornError(GraphitiError, ValueError):
    """A clause handed to the SAT oracle's solver has two negative literals.

    The refinement encoding is dual-Horn by construction (at most one
    negative literal per clause), and the solver decides exactly that
    class; anything else is a caller error, not a formula to search."""


class SimulationError(GraphitiError):
    """The cycle-level simulator reached an invalid configuration."""


class DeadlockError(SimulationError):
    """The simulated circuit made no progress before completing."""

    def __init__(self, message: str, cycle: int | None = None):
        self.cycle = cycle
        super().__init__(message)


class SchedulingError(GraphitiError):
    """The static scheduler could not schedule the program."""


class FrontendError(GraphitiError):
    """The mini-IR program was invalid or unsupported by the HLS front end."""
