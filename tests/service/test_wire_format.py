"""The versioned wire contract: every result round-trips through dicts.

Satellite of the v1.7 service PR: ``to_dict()`` embeds ``kind`` +
``schema_version`` on every result type, ``from_dict()`` rebuilds the
object, and malformed envelopes raise the typed ``ResultSchemaError``
instead of a bare ``KeyError``.
"""

import json

import pytest

from repro import Session
from repro.benchmarks import matvec
from repro.errors import ResultSchemaError
from repro.hls.frontend import compile_program
from repro.obs import MetricsSnapshot
from repro.results import SCHEMA_VERSION, check_schema, from_wire, to_wire
from repro.rewriting.pipeline import TransformResult


@pytest.fixture(scope="module")
def session():
    with Session(use_cache=False) as session:
        yield session


@pytest.fixture(scope="module")
def compiled(session):
    return compile_program(matvec(4), session.env).kernels[0]


def test_transform_result_round_trips(session, compiled):
    result = session.transform(graph=compiled.graph, mark=compiled.mark)
    wire = result.to_dict()
    assert wire["kind"] == "TransformResult"
    assert wire["schema_version"] == SCHEMA_VERSION
    json.dumps(wire)  # JSON-serialisable all the way down

    rebuilt = TransformResult.from_dict(wire)
    assert rebuilt.transformed == result.transformed
    assert rebuilt.rewrites_applied == result.rewrites_applied
    assert sorted(rebuilt.graph.nodes) == sorted(result.graph.nodes)
    assert rebuilt.graph.sorted_connections() == result.graph.sorted_connections()
    # the round-trip is a fixpoint: dict -> object -> identical dict
    assert rebuilt.to_dict() == wire


def test_v2_transform_result_has_no_strategy_keys(session, compiled):
    result = session.transform(graph=compiled.graph, mark=compiled.mark)
    wire = result.to_dict()
    assert wire["schema_version"] == SCHEMA_VERSION
    assert "strategy" not in wire and "saturation" not in wire
    assert TransformResult.from_dict(wire).to_dict() == wire


def _as_v1(wire: dict, strategy: str) -> dict:
    """The same result as a schema-1 writer stamped it."""
    return {**wire, "schema_version": 1, "strategy": strategy}


def test_v1_fixpoint_transform_result_still_reads(session, compiled):
    wire = session.transform(graph=compiled.graph, mark=compiled.mark).to_dict()
    old = _as_v1(wire, "fixpoint")
    old["saturation"] = {"states": 1}  # a key of that era, ignored
    rebuilt = TransformResult.from_dict(old)
    assert rebuilt.to_dict() == wire


def test_v1_non_fixpoint_transform_result_is_rejected(session, compiled):
    wire = session.transform(graph=compiled.graph, mark=compiled.mark).to_dict()
    with pytest.raises(ResultSchemaError, match="saturate"):
        TransformResult.from_dict(_as_v1(wire, "saturate"))


def test_simstats_round_trips(session, compiled):
    program = matvec(4)
    stats = session.simulate(graph_or_kernel=compiled, stimuli=program.arrays)
    wire = stats.to_dict()
    assert wire["kind"] == "SimStats" and wire["schema_version"] == SCHEMA_VERSION
    json.dumps(wire)
    rebuilt = type(stats).from_dict(wire)
    assert rebuilt.cycles == stats.cycles
    assert rebuilt.channel_peaks == stats.channel_peaks
    assert rebuilt.store_history == stats.store_history
    assert rebuilt.to_dict() == wire


def test_benchmark_result_round_trips(session):
    from repro.eval.runner import BenchmarkResult

    result = session.bench(name="matvec")
    wire = result.to_dict()
    assert wire["kind"] == "BenchmarkResult"
    rebuilt = BenchmarkResult.from_dict(wire)
    assert rebuilt.to_dict() == wire
    assert rebuilt["DF-OoO"].cycles == result["DF-OoO"].cycles


def test_metrics_snapshot_round_trips(session):
    snapshot = session.metrics()
    wire = snapshot.to_dict()
    assert wire["schema_version"] == SCHEMA_VERSION
    assert "saturation" not in wire
    rebuilt = MetricsSnapshot.from_dict(wire)
    assert rebuilt.to_dict() == wire


def test_to_wire_from_wire_dispatch(session, compiled):
    result = session.transform(graph=compiled.graph, mark=compiled.mark)
    rebuilt = from_wire(to_wire(result))
    assert isinstance(rebuilt, TransformResult)
    assert rebuilt.to_dict() == result.to_dict()


@pytest.mark.parametrize(
    "payload",
    [
        {"kind": "TransformResult"},                       # missing version
        {"kind": "TransformResult", "schema_version": 99},  # future version
        {"kind": "TransformResult", "schema_version": "1"},  # wrong type
        {"kind": "NoSuchResult", "schema_version": 1},      # unknown kind
        "not-a-dict",
        {"schema_version": 1},                              # missing kind
    ],
)
def test_malformed_envelopes_raise_typed_error(payload):
    with pytest.raises(ResultSchemaError):
        from_wire(payload)


def test_check_schema_kind_mismatch():
    with pytest.raises(ResultSchemaError, match="SimStats"):
        check_schema({"kind": "TransformResult", "schema_version": 1}, "SimStats")


def test_from_dict_wraps_field_errors():
    with pytest.raises(ResultSchemaError):
        TransformResult.from_dict(
            {"kind": "TransformResult", "schema_version": 1, "graph_dot": "not dot {"}
        )
