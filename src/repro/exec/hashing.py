"""Canonical fingerprints for cache keys.

A cached result is only reusable when *everything* that determined it is
unchanged, so every key produced here is a SHA-256 over a canonical
rendering of:

* the ExprHigh graph(s) involved (sorted nodes with their encoded
  component strings, sorted connections, and the I/O interface);
* the environment signature (queue capacity plus the registered builder
  and function names — see :meth:`repro.core.environment.Environment.signature`);
* the stimuli (per-port value sequences, or a benchmark's IR and array
  contents);
* the tool version (:data:`TOOL_VERSION`), so upgrading the reproduction
  invalidates every prior entry.

Fingerprints are plain hex strings; :func:`fingerprint` combines parts
with an unambiguous separator so ``("ab", "c")`` and ``("a", "bc")`` hash
differently.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .._version import __version__ as TOOL_VERSION
from ..core.environment import Environment
from ..core.exprhigh import ExprHigh

if TYPE_CHECKING:
    import numpy as np

_SEP = "\x1f"  # ASCII unit separator: cannot occur in the rendered parts


def fingerprint(*parts: str) -> str:
    """SHA-256 over the parts, keeping part boundaries unambiguous."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8", "backslashreplace"))
        digest.update(_SEP.encode())
    return digest.hexdigest()


def graph_fingerprint(graph: ExprHigh) -> str:
    """Canonical hash of an ExprHigh graph.

    Node insertion order does not matter; names, component types,
    parameters, port lists, connections and the external interface all do.
    Parameters are rendered through ``repr`` of the sorted parameter tuple,
    which is total (it also covers pattern metavariables) and deterministic
    for every value kind the graphs carry.
    """
    nodes = [
        f"{name}|{spec.typ}|{spec.in_ports!r}|{spec.out_ports!r}|{spec.params!r}"
        for name, spec in sorted(graph.nodes.items())
    ]
    connections = [f"{dst}<-{src}" for dst, src in graph.sorted_connections()]
    inputs = [f"{index}:{endpoint}" for index, endpoint in sorted(graph.inputs.items())]
    outputs = [f"{index}:{endpoint}" for index, endpoint in sorted(graph.outputs.items())]
    return fingerprint(
        "graph",
        ";".join(nodes),
        ";".join(connections),
        ";".join(inputs),
        ";".join(outputs),
    )


def stimuli_fingerprint(stimuli: Mapping | None) -> str:
    """Hash a stimuli mapping (port → finite value sequence)."""
    if stimuli is None:
        return fingerprint("stimuli", "none")
    rows = sorted(f"{port}={tuple(values)!r}" for port, values in stimuli.items())
    return fingerprint("stimuli", ";".join(rows))


def array_fingerprint(name: str, array: np.ndarray) -> str:
    import numpy as np  # only program keys hash arrays; obligations never load numpy

    digest = hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()
    return f"{name}:{array.dtype.str}:{array.shape}:{digest}"


def program_fingerprint(program) -> str:
    """Hash a mini-IR program: kernels plus initial array contents.

    The IR is a tree of frozen dataclasses, so ``repr`` is a faithful
    canonical rendering; arrays hash their dtype, shape and raw bytes.
    """
    arrays = [array_fingerprint(name, array) for name, array in sorted(program.arrays.items())]
    return fingerprint("program", program.name, repr(program.kernels), ";".join(arrays))


def eval_unit_key(program, compiled, env: Environment) -> str:
    """Cache key for one benchmark's evaluation through all four flows.

    *compiled* is the :class:`~repro.hls.frontend.CompiledProgram`; hashing
    the compiled kernel graphs (not just the IR) means any front-end change
    that alters the circuits also invalidates the cache.
    """
    kernel_parts: list[str] = []
    for ck in compiled.kernels:
        kernel_parts.append(graph_fingerprint(ck.graph))
        kernel_parts.append(repr(ck.mark))
    return fingerprint(
        "eval",
        TOOL_VERSION,
        program_fingerprint(program),
        env.signature(),
        *kernel_parts,
    )


# Unused by the library (obligations are decided only through
# certificate_key); kept because e2ebench/layers.py wraps it by name.
def obligation_fingerprint(name: str, instances: Sequence[tuple]) -> str:
    """Cache key for a rewrite's refinement-obligation discharge.

    *instances* are the rewrite's ``(lhs, rhs, env, stimuli)`` obligation
    instances; the key covers each instance's graphs, environment signature
    and stimuli, plus the tool version.
    """
    parts: list[str] = ["obligation", TOOL_VERSION, name]
    for lhs, rhs, env, stimuli in instances:
        parts.append(graph_fingerprint(lhs))
        parts.append(graph_fingerprint(rhs))
        parts.append(env.signature())
        parts.append(stimuli_fingerprint(stimuli))
    return fingerprint(*parts)


def certificate_key(
    impl: ExprHigh,
    spec: ExprHigh,
    env: Environment,
    stimuli: Mapping | None,
    spec_capacity: int | None = None,
) -> str:
    """Cache key for a persisted simulation certificate.

    The key addresses the serialised
    :class:`~repro.refinement.simulation.SimulationCertificate` itself,
    which the reader re-validates rather than trusts.  Covers both
    graphs, the environment signature, the stimuli, the spec capacity and
    the tool version — any drift in what the certificate is evidence *for*
    misses the cache and forces a fresh search.
    """
    return fingerprint(
        "sim-certificate",
        TOOL_VERSION,
        graph_fingerprint(impl),
        graph_fingerprint(spec),
        env.signature(),
        stimuli_fingerprint(stimuli),
        repr(spec_capacity),
    )


def fuzz_case_key(seed: int) -> str:
    """Cache key for one differential fuzz case.

    A case is a pure function of its seed (the generator and the whole
    flow under test are deterministic), so the key only needs the seed
    and the tool version — any change to the
    generator, the transforms or the simulators ships as a new version
    and invalidates the corpus.
    """
    return fingerprint("fuzz-case", TOOL_VERSION, str(int(seed)))


def sat_cross_check_key(name: str, instances: Sequence[tuple], bound: int) -> str:
    """Cache key for a rewrite's SAT-vs-game cross-check verdict."""
    parts: list[str] = ["sat-cross-check", TOOL_VERSION, name, str(int(bound))]
    for lhs, rhs, env, stimuli in instances:
        parts.append(graph_fingerprint(lhs))
        parts.append(graph_fingerprint(rhs))
        parts.append(env.signature())
        parts.append(stimuli_fingerprint(stimuli))
    return fingerprint(*parts)


# Unused by the library (refinement checks are keyed by certificate_key);
# kept because e2ebench/layers.py wraps it by name.
def weak_sim_key(
    impl: ExprHigh,
    spec: ExprHigh,
    env: Environment,
    stimuli: Mapping | None,
    values: Iterable | None = None,
    spec_capacity: int | None = None,
) -> str:
    """Cache key for one weak-simulation (graph refinement) check."""
    return fingerprint(
        "weak-sim",
        TOOL_VERSION,
        graph_fingerprint(impl),
        graph_fingerprint(spec),
        env.signature(),
        stimuli_fingerprint(stimuli),
        repr(tuple(values) if values is not None else None),
        repr(spec_capacity),
    )
