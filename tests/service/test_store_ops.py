"""ResultStore keys/dedupe/certificate index and the job-kind registry."""

import json

import pytest

from repro.errors import ServiceError
from repro.exec.cache import ResultCache
from repro.service.ops import JOB_KINDS, canonical_params
from repro.service.store import ResultStore, job_key


# -- canonical parameters -----------------------------------------------------


def test_kind_catalogue():
    assert JOB_KINDS == (
        "transform",
        "check_obligations",
        "sat_check",
        "simulate",
        "bench",
        "fuzz",
    )


def test_unknown_kind_rejected():
    with pytest.raises(ServiceError, match="unknown job kind"):
        canonical_params("explode", {})


def test_removed_verify_kind_rejected():
    with pytest.raises(ServiceError, match="unknown job kind 'verify'"):
        canonical_params("verify", {"rules": ["mux_combine"]})


def test_defaults_are_spelled_out_for_stable_keys():
    # omitting a default and spelling it must fingerprint identically
    sim_a = canonical_params("simulate", {"kernel": "mvt"})
    sim_b = canonical_params(
        "simulate", {"kernel": "mvt", "flow": "DF-OoO", "backend": "compiled"}
    )
    assert job_key("simulate", sim_a) == job_key("simulate", sim_b)


def test_different_params_different_keys():
    a = canonical_params("simulate", {"kernel": "mvt"})
    b = canonical_params("simulate", {"kernel": "mvt", "flow": "DF-IO"})
    assert job_key("simulate", a) != job_key("simulate", b)
    assert job_key("simulate", a) != job_key("bench", {"name": "mvt"})


@pytest.mark.parametrize(
    ("kind", "params", "match"),
    [
        ("transform", {}, "kernel|dot"),
        ("transform", {"kernel": "nope"}, "unknown benchmark"),
        ("transform", {"kernel": "matvec", "strategy": "fixpoint"}, "unknown parameter"),
        ("transform", {"kernel": "matvec", "dot": "x", "mark": {}}, "not both"),
        ("transform", {"dot": "digraph {}"}, "mark"),
        ("simulate", {"kernel": "matvec", "flow": "sideways"}, "flow"),
        ("simulate", {"kernel": "matvec", "backend": "quantum"}, "backend"),
        ("simulate", {"kernel": "matvec", "jobs": 4}, "unknown parameter"),
        ("bench", {}, "name"),
        ("bench", {"name": "matvec", "extra": 1}, "unknown parameter"),
        ("check_obligations", {"rules": ["made_up_rule"]}, "unknown rule"),
        ("check_obligations", {"rules": "mux_combine"}, "list"),
        ("check_obligations", {"rules": [42]}, "list"),
    ],
)
def test_invalid_params_rejected(kind, params, match):
    with pytest.raises(ServiceError, match=match):
        canonical_params(kind, params)


def test_obligation_rules_are_sorted_and_deduped():
    params = canonical_params(
        "check_obligations", {"rules": ["ooo_loop", "mux_combine", "ooo_loop"]}
    )
    assert params == {"rules": ["mux_combine", "ooo_loop"]}


def test_mark_normalisation_sorts_node_lists():
    base = {
        "dot": "digraph {}",
        "mark": {
            "mux_nodes": ["m2", "m1"],
            "branch_nodes": ["b1"],
            "init_node": "i",
            "cond_fork": "cf",
        },
    }
    swapped = json.loads(json.dumps(base))
    swapped["mark"]["mux_nodes"] = ["m1", "m2"]
    assert canonical_params("transform", base) == canonical_params("transform", swapped)


# -- the store ----------------------------------------------------------------


def test_store_round_trip_and_stats(tmp_path):
    store = ResultStore(cache_dir=tmp_path)
    key = store.key_for("bench", {"name": "matvec"})
    assert store.get(key) is None
    store.put(key, {"kind": "BenchmarkResult", "schema_version": 1})
    assert store.get(key) == {"kind": "BenchmarkResult", "schema_version": 1}
    stats = store.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1 and stats["writes"] == 1


def test_null_store_never_hits(tmp_path):
    store = ResultStore(use_cache=False)
    key = store.key_for("bench", {"name": "matvec"})
    store.put(key, {"x": 1})
    assert store.get(key) is None
    assert store.refresh_certificates() == 0


def test_certificate_index_finds_and_validates(tmp_path):
    from repro.refinement.checker import check_rewrite_obligation
    from repro.rewriting.rules import build_rewrite

    cache = ResultCache(tmp_path)
    rewrite = build_rewrite("repro.rewriting.rules.combine", "mux_combine", {})
    lhs, rhs, env, stimuli = next(iter(rewrite.obligation()))
    report = check_rewrite_obligation(lhs, rhs, env, stimuli, cache=cache)
    content_hash = report.certificate.content_hash()

    store = ResultStore(cache_dir=tmp_path)
    payload = store.certificate(content_hash)
    assert payload is not None
    assert payload["hash"] == content_hash
    assert store.certificate("0" * 64) is None


def test_certificate_tamper_rejected(tmp_path):
    from repro.refinement.checker import check_rewrite_obligation
    from repro.rewriting.rules import build_rewrite

    cache = ResultCache(tmp_path)
    rewrite = build_rewrite("repro.rewriting.rules.combine", "mux_combine", {})
    lhs, rhs, env, stimuli = next(iter(rewrite.obligation()))
    report = check_rewrite_obligation(lhs, rhs, env, stimuli, cache=cache)
    content_hash = report.certificate.content_hash()

    # flip payload bytes inside the stored binary container
    [path] = [p for p in tmp_path.glob("*/*.bin")]
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))

    store = ResultStore(cache_dir=tmp_path)
    assert store.certificate(content_hash) is None  # recheck-validation fails


def test_json_certificate_entry_is_not_served(tmp_path):
    """Only ``.bin`` entries are indexed: a JSON certificate entry (the
    pre-format-2 layout) is neither scanned nor served."""
    from repro.refinement.checker import check_rewrite_obligation
    from repro.rewriting.rules import build_rewrite

    cache = ResultCache(tmp_path)
    rewrite = build_rewrite("repro.rewriting.rules.combine", "mux_combine", {})
    lhs, rhs, env, stimuli = next(iter(rewrite.obligation()))
    report = check_rewrite_obligation(lhs, rhs, env, stimuli, cache=cache)
    content_hash = report.certificate.content_hash()

    [bin_path] = [p for p in tmp_path.glob("*/*.bin")]
    key = bin_path.stem
    bin_path.unlink()
    cache.put(key, report.certificate.to_dict())

    store = ResultStore(cache_dir=tmp_path)
    assert store.certificate(content_hash) is None
    assert store.certificate_bytes(content_hash) is None
    assert store.refresh_certificates() == 0

