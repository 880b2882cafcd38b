"""The common result protocol and the versioned wire format.

Every user-facing result object — :class:`~repro.rewriting.pipeline.TransformResult`,
:class:`~repro.eval.runner.FlowResult` (and its aggregate
:class:`~repro.eval.runner.BenchmarkResult`),
:class:`~repro.sim.cycle.SimStats` and :class:`~repro.obs.MetricsSnapshot` —
implements the same protocol, so the CLI, the cache serialiser, the report
generators and the verification service handle them uniformly instead of
special-casing each type:

* ``to_dict()`` — a JSON-serialisable dict, always carrying a ``"kind"``
  discriminator and a ``"schema_version"`` stamp;
* ``summary()`` — a one-line human-readable digest;
* ``from_dict(data)`` — the inverse of ``to_dict``, validating the kind
  and schema version and raising :class:`ResultSchemaError` on drift.

Since v1.7 the dict form is a *versioned wire contract*: it is what the
``repro.service`` job server returns from ``GET /v1/jobs/{id}/result``,
what the content-addressed caches persist, and what
:func:`from_wire` turns back into typed objects.  :data:`SCHEMA_VERSION`
is bumped whenever a field changes meaning; readers reject unknown or
missing versions instead of guessing.
"""

from __future__ import annotations

from typing import Callable, Mapping, Protocol, runtime_checkable

from .errors import GraphitiError, ResultSchemaError

#: The wire-format version stamped into every ``to_dict()`` payload.
#: Bump on any change to a result type's dict shape; ``from_dict``
#: readers reject versions they do not know.  Version 2 (v1.16) dropped
#: the ``TransformResult`` strategy/frontier keys and the
#: ``MetricsSnapshot`` ``saturation`` section.  Version 3 (v1.18) dropped
#: the ``MetricsSnapshot`` ``gauges`` section; its ``executor`` and
#: ``rewriting`` sections became views of its ``counters``.
SCHEMA_VERSION = 3


@runtime_checkable
class Result(Protocol):
    """Anything with a dict form and a one-line summary."""

    def to_dict(self) -> dict: ...

    def summary(self) -> str: ...


#: ``kind`` discriminator → ``"module:Class"`` owning the matching
#: ``from_dict``.  Lazy import specs keep this module dependency-free.
_WIRE_KINDS: dict[str, str] = {
    "TransformResult": "repro.rewriting.pipeline:TransformResult",
    "FlowResult": "repro.eval.runner:FlowResult",
    "BenchmarkResult": "repro.eval.runner:BenchmarkResult",
    "SimStats": "repro.sim.cycle:SimStats",
    "MetricsSnapshot": "repro.obs.metrics:MetricsSnapshot",
}


def check_schema(data: object, kind: str | None = None) -> dict:
    """Validate a wire dict's envelope; returns *data* on success.

    Raises :class:`ResultSchemaError` unless *data* is a mapping carrying
    a known ``schema_version`` (missing counts as unknown — pre-v1.7
    payloads are rejected, not guessed at) and, when *kind* is given, the
    matching ``kind`` discriminator.
    """
    if not isinstance(data, Mapping):
        raise ResultSchemaError(
            f"wire-format result must be a mapping, got {type(data).__name__}"
        )
    version = data.get("schema_version")
    if version is None:
        raise ResultSchemaError(
            f"wire-format result is missing 'schema_version' "
            f"(kind={data.get('kind')!r}); pre-versioned payloads are not accepted"
        )
    if not isinstance(version, int) or not 1 <= version <= SCHEMA_VERSION:
        raise ResultSchemaError(
            f"unknown result schema_version {version!r} "
            f"(this reader supports 1..{SCHEMA_VERSION})"
        )
    if kind is not None and data.get("kind") != kind:
        raise ResultSchemaError(
            f"expected a {kind!r} result, got kind={data.get('kind')!r}"
        )
    return dict(data)


def _loader(kind: str) -> Callable[[dict], object]:
    import importlib

    spec = _WIRE_KINDS.get(kind)
    if spec is None:
        raise ResultSchemaError(
            f"unknown result kind {kind!r}; known kinds: {sorted(_WIRE_KINDS)}"
        )
    module_name, _, attr = spec.partition(":")
    cls = getattr(importlib.import_module(module_name), attr)
    return cls.from_dict


def to_wire(result: object) -> dict:
    """``result.to_dict()``, checked to carry a valid wire envelope."""
    return check_schema(as_dict(result))


def from_wire(data: object) -> object:
    """Rebuild the typed result object from its wire dict.

    Dispatches on the ``kind`` discriminator after validating the schema
    version; unknown kinds and unknown/missing versions raise
    :class:`ResultSchemaError`.
    """
    entry = check_schema(data)
    kind = entry.get("kind")
    if not isinstance(kind, str):
        raise ResultSchemaError(f"wire-format result has no 'kind' discriminator: {entry.keys()}")
    return _loader(kind)(entry)


def as_dict(result: object) -> dict:
    """``result.to_dict()``, with a clear error for non-conforming objects."""
    if not isinstance(result, Result):
        raise GraphitiError(
            f"{type(result).__name__} does not implement the result protocol "
            "(to_dict/summary)"
        )
    return result.to_dict()


def summarize(result: object) -> str:
    """``result.summary()``, with a clear error for non-conforming objects."""
    if not isinstance(result, Result):
        raise GraphitiError(
            f"{type(result).__name__} does not implement the result protocol "
            "(to_dict/summary)"
        )
    return result.summary()
