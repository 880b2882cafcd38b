"""The concurrency hammer: >=100 mixed jobs against one server.

Asserts the three service guarantees under saturation:

* **determinism** — every result returned over HTTP is byte-identical to
  the same call made on an in-process Session (deduped, coalesced and
  freshly computed submissions alike);
* **metric isolation** — each job's request-scoped counters reflect only
  its own work: concurrent verify jobs all report the same
  ``refinement.weak_sim_checks`` count, and simulate jobs report none;
* **clean cancellation** — jobs cancelled while the pool is saturated end
  ``cancelled`` without poisoning the queue for later jobs.
"""

import json
import random
from concurrent.futures import ThreadPoolExecutor

from repro import Session
from repro.benchmarks import load_benchmark
from repro.hls.frontend import compile_program
from repro.service.ops import run_op

SIM_KERNELS = ("matvec", "mvt", "gsum-single", "bicg")
TRANSFORM_KERNELS = ("matvec", "mvt")


def _expected_results():
    """Ground truth: the same ops on one in-process, uncached Session."""
    expected = {}
    with Session(use_cache=False) as session:
        for name in SIM_KERNELS:
            expected[("simulate", name)] = run_op(
                session, "simulate",
                {"backend": "compiled", "flow": "DF-IO", "kernel": name},
            )
        for name in TRANSFORM_KERNELS:
            expected[("transform", name)] = run_op(
                session, "transform", {"kernel": name}
            )
        expected[("bench", "matvec")] = run_op(session, "bench", {"name": "matvec"})
    return expected


def test_hammer_mixed_concurrent_jobs(make_server):
    server, client = make_server(workers=4)
    expected = _expected_results()

    submissions = []
    for repeat in range(10):
        for name in SIM_KERNELS:
            submissions.append(("simulate", {"kernel": name, "flow": "DF-IO"}, True))
    for repeat in range(20):
        for name in TRANSFORM_KERNELS:
            submissions.append(("transform", {"kernel": name}, True))
    for name in SIM_KERNELS:
        for repeat in range(3):
            submissions.append(("simulate", {"kernel": name, "flow": "DF-IO"}, False))
    submissions.extend([("bench", {"name": "matvec"}, True)] * 8)
    assert len(submissions) >= 100
    random.Random(7).shuffle(submissions)

    def drive(entry):
        kind, params, dedup = entry
        result = client.run(kind, params, dedup=dedup)
        key = (kind, params.get("kernel") or params.get("name"))
        return key, json.dumps(result, sort_keys=True)

    with ThreadPoolExecutor(max_workers=64) as pool:
        outcomes = list(pool.map(drive, submissions))

    assert len(outcomes) == len(submissions)
    for key, payload in outcomes:
        assert payload == json.dumps(expected[key], sort_keys=True), (
            f"service result for {key} diverged from in-process Session"
        )

    # dedup did real work: coalescing collapsed duplicate submissions onto
    # shared job records, and repeats were answered from the store
    metrics = client.metrics()
    assert metrics["jobs"]["done"] < len(submissions)
    assert metrics["jobs"]["done"] >= len(expected)  # every unique key ran
    assert metrics["store"]["hits"] > 0
    assert metrics["jobs"]["failed"] == 0


def test_no_cross_job_metric_bleed(make_server):
    # uncached server: every job recomputes, so per-job counters are exact
    _, client = make_server(workers=4, use_cache=False)

    def obligation_job(_):
        job = client.submit("check_obligations", {"rules": ["mux_combine"]}, dedup=False)
        return client.wait(job["id"])

    def simulate_job(_):
        job = client.submit(
            "simulate", {"kernel": "matvec", "flow": "DF-IO"}, dedup=False
        )
        return client.wait(job["id"])

    with ThreadPoolExecutor(max_workers=16) as pool:
        verifies = pool.map(obligation_job, range(6))
        simulates = pool.map(simulate_job, range(6))
        verify_finals = list(verifies)
        simulate_finals = list(simulates)

    weak_sim_counts = {
        final["metrics"]["counters"].get("refinement.weak_sim_checks", 0)
        for final in verify_finals
    }
    assert len(weak_sim_counts) == 1, (
        f"concurrent obligation jobs saw different counters: {weak_sim_counts}"
    )
    assert weak_sim_counts.pop() >= 1

    for final in simulate_finals:
        counters = final["metrics"]["counters"]
        assert counters.get("refinement.weak_sim_checks", 0) == 0, (
            "a simulate job absorbed a concurrent obligation job's counters"
        )


def test_cancellation_under_saturation(make_server):
    server, client = make_server(workers=2)
    # saturate both workers plus the queue with slow, non-deduped work
    held = [client.submit("bench", {"name": "gemm"}, dedup=False) for _ in range(4)]
    victims = [
        client.submit("simulate", {"kernel": "mvt", "flow": "DF-IO"},
                      dedup=False, priority=9)
        for _ in range(6)
    ]
    for victim in victims:
        client.cancel(victim["id"])
    finals = [client.wait(victim["id"]) for victim in victims]
    assert all(final["state"] == "cancelled" for final in finals)
    assert all("result" not in final for final in finals)

    # the queue survives: fresh work still completes normally
    after = client.run("simulate", {"kernel": "matvec", "flow": "DF-IO"})
    assert after["kind"] == "SimStats" and after["cycles"] > 0
    for job in held:
        client.wait(job["id"])
