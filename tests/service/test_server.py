"""End-to-end HTTP tests: a real ServiceServer on a free port per test."""

import json

import pytest

from repro.errors import ServiceError
from repro.results import SCHEMA_VERSION


def test_submit_watch_result_roundtrip(make_server):
    _, client = make_server()
    job = client.submit("simulate", {"kernel": "matvec", "flow": "DF-IO"})
    assert job["state"] in ("queued", "running")

    states = [status["state"] for status in client.watch(job["id"])]
    assert states[-1] == "done"
    # the stream is ordered: versions strictly increase, one line per change
    result = client.result(job["id"])
    assert result["kind"] == "SimStats"
    assert result["schema_version"] == SCHEMA_VERSION
    assert result["cycles"] > 0


def test_watch_streams_ndjson_lines(make_server):
    import http.client

    server, client = make_server()
    job = client.submit("simulate", {"kernel": "matvec", "flow": "DF-IO"})
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        connection.request("GET", f"/v1/jobs/{job['id']}?watch=1")
        response = connection.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        lines = [json.loads(line) for line in response.read().decode().splitlines()]
    finally:
        connection.close()
    assert lines, "watch stream produced no status lines"
    versions = [line["version"] for line in lines]
    assert versions == sorted(versions)
    assert lines[-1]["state"] == "done"


def test_second_identical_request_served_from_store(make_server):
    _, client = make_server()
    first = client.submit("transform", {"kernel": "matvec"})
    final = client.wait(first["id"])
    assert final["state"] == "done" and not final["from_store"]
    result_one = client.result(first["id"])

    second = client.submit("transform", {"kernel": "matvec"})
    assert second["state"] == "done"  # answered synchronously, no recompute
    assert second["from_store"]
    result_two = client.result(second["id"])
    assert json.dumps(result_one, sort_keys=True) == json.dumps(result_two, sort_keys=True)


def test_dedup_false_bypasses_the_store(make_server):
    _, client = make_server()
    first = client.submit("simulate", {"kernel": "matvec", "flow": "DF-IO"})
    client.wait(first["id"])
    fresh = client.submit("simulate", {"kernel": "matvec", "flow": "DF-IO"}, dedup=False)
    assert not fresh["from_store"]
    assert fresh["state"] in ("queued", "running")
    client.wait(fresh["id"])


def test_default_spelling_dedupes_with_explicit_spelling(make_server):
    _, client = make_server()
    first = client.submit("simulate", {"kernel": "matvec"})
    client.wait(first["id"])
    second = client.submit("simulate", {"kernel": "matvec", "flow": "DF-OoO"})
    assert second["from_store"]


def test_bad_submissions_answer_400(make_server):
    _, client = make_server()
    for kind, params in [
        ("explode", {}),
        ("bench", {"name": "not-a-benchmark"}),
        ("transform", {}),
        ("simulate", {"kernel": "matvec", "flow": "sideways"}),
        ("simulate", {"kernel": "matvec", "backend": "interp"}),
    ]:
        with pytest.raises(ServiceError, match="400"):
            client.submit(kind, params)


def test_unknown_job_404(make_server):
    _, client = make_server()
    with pytest.raises(ServiceError, match="404"):
        client.status("job-12345")
    with pytest.raises(ServiceError, match="404"):
        client.result("job-12345")


def test_result_before_done_409(make_server):
    _, client = make_server()
    job = client.submit("bench", {"name": "matvec"}, priority=0)
    try:
        client.result(job["id"])
    except ServiceError as exc:
        assert "409" in str(exc)
    else:  # the job may legitimately already be done on a fast machine
        assert client.status(job["id"])["state"] == "done"
    client.wait(job["id"])


def test_cancel_queued_job(make_server):
    _, client = make_server(workers=1)
    # one running job keeps the single worker busy; the second stays queued
    hold = client.submit("bench", {"name": "gemm"}, dedup=False)
    victim = client.submit("bench", {"name": "mvt"}, dedup=False)
    status = client.cancel(victim["id"])
    assert status["state"] == "cancelled"
    final = client.wait(victim["id"])
    assert final["state"] == "cancelled"
    client.wait(hold["id"])


def test_metrics_endpoint(make_server):
    _, client = make_server()
    job = client.submit("simulate", {"kernel": "matvec", "flow": "DF-IO"})
    client.wait(job["id"])
    metrics = client.metrics()
    assert metrics["kind"] == "ServiceMetrics"
    assert metrics["jobs"]["done"] >= 1
    assert metrics["workers"] == 2
    assert "store" in metrics and "hits" in metrics["store"]


def test_job_timeout_reports_failed(make_server):
    _, client = make_server()
    job = client.submit("bench", {"name": "gemm"}, timeout=0.01, dedup=False)
    final = client.wait(job["id"])
    assert final["state"] == "failed"
    assert "timed out" in final["error"]
    with pytest.raises(ServiceError, match="500"):
        client.result(job["id"])


def test_certificates_endpoint_after_check_obligations(make_server):
    _, client = make_server()
    result = client.run("check_obligations", {"rules": ["mux_combine"]})
    [outcome] = result["outcomes"]
    assert outcome["holds"]
    assert outcome["certificate_hashes"]
    payload = client.certificate(outcome["certificate_hashes"][0])
    assert payload["kind"] == "SimulationCertificate"
    assert payload["hash"] == outcome["certificate_hashes"][0]
    with pytest.raises(ServiceError, match="404"):
        client.certificate("0" * 64)


def test_stored_binary_certificate_survives_restart(make_server, tmp_path):
    from repro.refinement.codec import from_bytes, looks_binary

    cache_dir = tmp_path / "shared-cache"
    _, client = make_server(cache_dir=cache_dir)
    result = client.run("check_obligations", {"rules": ["mux_combine"]})
    [outcome] = result["outcomes"]
    content_hash = outcome["certificate_hashes"][0]
    assert list(cache_dir.glob("*/*.bin"))  # persisted as the compact encoding
    client.shutdown()

    # a fresh server over the same cache directory re-indexes and serves it
    _, reborn = make_server(cache_dir=cache_dir)
    payload = reborn.certificate(content_hash)
    assert payload["kind"] == "SimulationCertificate"
    assert payload["hash"] == content_hash

    blob = reborn.certificate_bytes(content_hash)
    assert looks_binary(blob)
    certificate = from_bytes(blob)
    assert certificate.content_hash() == content_hash


def test_per_job_metrics_are_scoped(make_server):
    _, client = make_server()
    job = client.submit("check_obligations", {"rules": ["mux_combine"]})
    final = client.wait(job["id"])
    assert final["state"] == "done"
    counters = final["metrics"]["counters"]
    assert counters.get("refinement.weak_sim_checks", 0) >= 1


def test_graceful_shutdown(make_server):
    server, client = make_server()
    job = client.submit("simulate", {"kernel": "matvec", "flow": "DF-IO"})
    client.wait(job["id"])
    assert client.shutdown()["state"] == "shutting-down"
