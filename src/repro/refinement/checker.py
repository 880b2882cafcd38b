"""High-level refinement checking over graphs and rewrites.

This module turns the low-level simulation machinery into the API the rest
of the library uses:

* :func:`refines` — ``impl ⊑ spec`` for two modules;
* :func:`check_rewrite_obligation` — discharge a rewrite's ``rhs ⊑ lhs``
  obligation on a bounded instance, the executable stand-in for the Lean
  proof that theorem 4.6 then propagates to whole graphs.

Since v1.4 obligation checks are *certified*: a successful search's
:class:`~repro.refinement.simulation.SimulationCertificate` can be stored
in the content-addressed result cache, and a repeated obligation loads the
certificate and re-validates it in one O(relation) pass
(:func:`~repro.refinement.simulation.recheck_certificate`) instead of
re-solving the game.  Re-validation is a *check*, not trust: a stale,
corrupted or tampered certificate fails the hash or a simulation diagram
and the obligation silently falls back to a full search.  The
:class:`RefinementReport` records which path produced it: ``mode="search"``
(cold), ``"recheck"`` (persisted certificate re-validated by the
exhaustive diagram pass) or ``"search-fallback"`` (a stored
certificate failed re-validation and the game was re-solved).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .. import obs
from ..core.environment import Environment
from ..core.exprhigh import ExprHigh
from ..core.module import Module, Value
from ..core.ports import IOPort, Port
from ..core.semantics import denote
from ..errors import CertificateError, RefinementError
from .codec import from_bytes, to_bytes
from .simulation import (
    SimulationCertificate,
    find_weak_simulation,
    recheck_certificate,
)

Stimuli = Mapping[Port, Iterable[Value]]

#: Queue capacity the spec (lhs) side of every obligation instance is
#: denoted with, approximating the paper's unbounded-queue semantics.  The
#: spec must be roomier than the impl so that extra buffering introduced by
#: a rewrite does not register as a spurious input-refusal counterexample;
#: it must stay bounded because components that discard tokens (Sinks)
#: would otherwise give the simulation game unboundedly many
#: partially-drained spec states.
SPEC_CAPACITY = 4

#: The value set offered uniformly on every input of an instance that
#: names no stimuli of its own.
DEFAULT_VALUES = (0, 1)


@dataclass
class RefinementReport:
    """A successful refinement check: its certificate and provenance.

    *mode* records the provenance of the verdict: ``"search"`` when the
    weak-simulation game was solved from scratch (cold), ``"recheck"``
    when a persisted certificate was re-validated by the exhaustive
    diagram pass, and ``"search-fallback"`` when a
    stored certificate existed but failed re-validation and the game was
    re-solved from scratch — corruption costs time, never soundness.
    """

    certificate: SimulationCertificate
    mode: str = "search"  # "search" | "recheck" | "search-fallback"


def refines(impl: Module, spec: Module, stimuli: Stimuli) -> bool:
    """Does ``impl ⊑ spec`` hold?"""
    return find_weak_simulation(impl, spec, stimuli).holds


def uniform_stimuli(module: Module, values: Iterable[Value]) -> dict[Port, tuple[Value, ...]]:
    """Offer the same finite value set on every input port of *module*."""
    values = tuple(values)
    return {port: values for port in module.input_ports()}


def denote_instance(
    lhs: ExprHigh, rhs: ExprHigh, env: Environment, stimuli: Stimuli | None = None
) -> tuple[Module, Module, Stimuli]:
    """Denote one obligation instance as ``(impl, spec, stimuli)``.

    The rhs (implementation) is denoted in *env*, whose queue capacities
    bound the explored state space; the lhs (specification) at
    :data:`SPEC_CAPACITY`.  Omitted *stimuli* offer :data:`DEFAULT_VALUES`
    on every input of the implementation.
    """
    impl = denote(rhs.lower(), env)
    spec = denote(lhs.lower(), env.with_capacity(SPEC_CAPACITY))
    if stimuli is None:
        stimuli = uniform_stimuli(impl, DEFAULT_VALUES)
    return impl, spec, stimuli


def io_stimuli(values_per_port: Mapping[int, Iterable[Value]]) -> dict[Port, tuple[Value, ...]]:
    """Build stimuli keyed by I/O port index."""
    return {IOPort(index): tuple(values) for index, values in values_per_port.items()}


def _load_cached_certificate(cache, key: str) -> tuple[SimulationCertificate | None, bool]:
    """Fetch and decode a cached binary certificate.

    Returns ``(certificate, found)``: *found* is True whenever a stored
    entry existed, even one that failed to decode (format drift, hash
    mismatch, truncation — counted as recheck failures).
    """
    blob = cache.get_bytes(key)
    if blob is None:
        return None, False
    try:
        return from_bytes(blob), True
    except CertificateError:
        obs.count("refinement.cert_recheck_failures")
        return None, True


def _recheck_cached_certificate(
    cache,
    key: str,
    impl: Module,
    spec: Module,
    stimuli: Stimuli,
) -> tuple[RefinementReport | None, bool]:
    """Load and re-validate a cached certificate.

    Returns ``(report, had_candidate)``: *report* is None on any
    miss/failure, and *had_candidate* records whether a stored certificate
    was found at all — a caller that then searches reports
    ``mode="search-fallback"`` so metrics can tell a cold search from a
    failed fast path.

    Never trusts the stored verdict: the certificate is deserialised (hash
    checked), then its relation is re-validated against the modules
    denoted from the current rules by the exhaustive diagram pass.  Any
    failure — cache miss, format drift, hash mismatch, a diagram that no
    longer holds — reports a miss so the caller runs the full search.
    """
    with obs.span("refine:recheck") as sp:
        certificate, found = _load_cached_certificate(cache, key)
        if certificate is None:
            obs.count("refinement.cert_cache_misses")
            return None, found
        result = recheck_certificate(impl, spec, certificate, stimuli)
        sp.set(
            holds=result.holds,
            relation=len(certificate.relation),
            method=result.method,
        )
        if not result.holds:
            obs.count("refinement.cert_recheck_failures")
            return None, True
    obs.count("refinement.cert_cache_hits")
    return RefinementReport(certificate, mode="recheck"), True


def check_rewrite_obligation(
    lhs: ExprHigh,
    rhs: ExprHigh,
    env: Environment,
    stimuli: Stimuli | None = None,
    cache=None,
) -> RefinementReport:
    """Discharge the ``rhs ⊑ lhs`` obligation of a rewrite on a bounded instance.

    The rewriting function is correctness-preserving whenever the right-hand
    side refines the left-hand side (theorem 4.6); this function checks that
    premise on the instance :func:`denote_instance` builds.

    *cache* (a :class:`repro.exec.cache.ResultCache`-shaped object with
    ``get_bytes``/``put_bytes``) enables the certificate fast path: a prior
    successful check's binary certificate is loaded and re-validated by the
    exhaustive diagram pass; on success the report has ``mode="recheck"``,
    and on any re-validation failure the full search runs
    (``mode="search-fallback"``) and its fresh certificate replaces the
    stored one.
    """
    rhs_module, lhs_module, stimuli = denote_instance(lhs, rhs, env, stimuli)

    key = None
    had_candidate = False
    if cache is not None:
        from ..exec.hashing import certificate_key

        key = certificate_key(rhs, lhs, env, stimuli)
        report, had_candidate = _recheck_cached_certificate(
            cache, key, rhs_module, lhs_module, stimuli
        )
        if report is not None:
            return report

    with obs.span("refine:weak-sim", obligation=True) as sp:
        result = find_weak_simulation(rhs_module, lhs_module, stimuli)
        sp.set(holds=result.holds)
        if result.certificate is not None:
            sp.set(
                impl_states=result.certificate.impl_states,
                spec_states=result.certificate.spec_states,
            )
    obs.count("refinement.weak_sim_checks")
    if not result.holds:
        raise RefinementError(
            f"rewrite obligation rhs ⊑ lhs failed: {result.violation}",
            counterexample=result.violation,
        )
    certificate = result.certificate
    assert certificate is not None
    if cache is not None and key is not None:
        cache.put_bytes(key, to_bytes(certificate))
    return RefinementReport(
        certificate, mode="search-fallback" if had_candidate else "search"
    )
