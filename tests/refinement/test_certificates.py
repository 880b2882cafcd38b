"""Persistent simulation certificates: round-trip, integrity, fallback.

The contract under test (docs/verification.md): a certificate serialises
losslessly to the binary container with a stable content hash, ``recheck_certificate`` accepts
exactly the evidence a search emits, and a corrupted certificate is
*rejected* — the obligation falls back to a full search and never yields
a wrong "holds" through the fast path.
"""

import json

import pytest

from repro import obs
from repro.components import buffer, default_environment, fork, pure
from repro.core import ExprHigh, denote
from repro.errors import CertificateError, RefinementError
from repro.exec.cache import ResultCache
from repro.exec.hashing import certificate_key
from repro.refinement import (
    SimulationCertificate,
    certificate_from_bytes,
    certificate_to_bytes,
    check_rewrite_obligation,
    encode_state,
    find_weak_simulation,
    recheck_certificate,
    uniform_stimuli,
)
from repro.refinement.encoding import NodeTable, decode_nodes


@pytest.fixture
def env():
    return default_environment(capacity=2)


def chain_graph(length=2):
    g = ExprHigh()
    for i in range(length):
        g.add_node(f"b{i}", buffer(slots=1))
    for i in range(length - 1):
        g.connect(f"b{i}", "out0", f"b{i+1}", "in0")
    g.mark_input(0, "b0", "in0")
    g.mark_output(0, f"b{length-1}", "out0")
    return g


def wide_graph(slots=2):
    g = ExprHigh()
    g.add_node("b", buffer(slots=slots))
    g.mark_input(0, "b", "in0")
    g.mark_output(0, "b", "out0")
    return g


def searched_certificate(env):
    """A real certificate: the 2-chain refines the 2-slot buffer."""
    impl = denote(chain_graph(2).lower(), env)
    spec = denote(wide_graph(2).lower(), env)
    stimuli = uniform_stimuli(impl, (0, 1))
    result = find_weak_simulation(impl, spec, stimuli)
    assert result.holds
    return impl, spec, stimuli, result.certificate


def binary_roundtrip(state):
    """Intern *state* into a node table and decode it back."""
    table = NodeTable()
    root = table.index(state)
    nodes: list = []
    decode_nodes(table.blob(), 0, len(table), nodes)
    return nodes[root]


class TestStateCodec:
    @pytest.mark.parametrize(
        "state",
        [
            None,
            True,
            False,
            0,
            -3,
            2.5,
            "token",
            (),
            ((), ("a", 1)),
            frozenset({1, 2, 3}),
            (frozenset({(1, "x"), (2, "y")}), (None, (True,))),
        ],
    )
    def test_roundtrip_identity(self, state):
        assert binary_roundtrip(state) == state

    def test_bool_and_int_not_conflated(self):
        assert binary_roundtrip(True) is True
        assert binary_roundtrip(1) == 1 and binary_roundtrip(1) is not True
        assert encode_state(True) != encode_state(1)

    def test_unencodable_state_rejected(self):
        with pytest.raises(CertificateError):
            encode_state(object())


class TestRoundTrip:
    def test_binary_roundtrip_identity(self, env):
        _, _, _, certificate = searched_certificate(env)
        restored = certificate_from_bytes(certificate_to_bytes(certificate))
        assert restored.relation == certificate.relation
        assert restored.stimuli == certificate.stimuli
        assert restored.impl_states == certificate.impl_states
        assert restored.content_hash() == certificate.content_hash()

    def test_hash_is_stable_across_construction_order(self, env):
        _, _, _, certificate = searched_certificate(env)
        reordered = SimulationCertificate(
            relation=frozenset(sorted(certificate.relation, key=repr, reverse=True)),
            impl_states=certificate.impl_states,
            spec_states=certificate.spec_states,
            iterations=certificate.iterations,
            stimuli=dict(reversed(list(certificate.stimuli.items()))),
        )
        assert reordered.content_hash() == certificate.content_hash()

    def test_json_dump_is_serialisable_and_names_the_hash(self, env):
        _, _, _, certificate = searched_certificate(env)
        payload = certificate.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["hash"] == certificate.content_hash()
        assert len(payload["relation"]) == len(certificate.relation)

    def test_semantic_change_changes_hash(self, env):
        _, _, _, certificate = searched_certificate(env)
        smaller = SimulationCertificate(
            relation=frozenset(list(certificate.relation)[1:]),
            impl_states=certificate.impl_states,
            spec_states=certificate.spec_states,
            iterations=certificate.iterations,
            stimuli=certificate.stimuli,
        )
        assert smaller.content_hash() != certificate.content_hash()


class TestRecheck:
    def test_recheck_accepts_what_search_emits(self, env):
        impl, spec, stimuli, certificate = searched_certificate(env)
        restored = certificate_from_bytes(certificate_to_bytes(certificate))
        result = recheck_certificate(impl, spec, restored, stimuli)
        assert result.holds

    def test_bogus_pair_fails_a_diagram(self, env):
        # A hash-consistent corruption: rebuild the certificate with a
        # *losing* pair added (a chain holding tokens, related to the empty
        # buffer — which can respond to nothing), so from_bytes would accept
        # it; the diagram replay is what must catch it.
        impl, spec, stimuli, certificate = searched_certificate(env)
        t0 = next(iter(spec.init))
        s_bad = next(
            s
            for (s, _t) in certificate.relation
            if s not in impl.init and (s, t0) not in certificate.relation
        )
        doctored = SimulationCertificate(
            relation=certificate.relation | {(s_bad, t0)},
            impl_states=certificate.impl_states,
            spec_states=certificate.spec_states,
            iterations=certificate.iterations,
            stimuli=certificate.stimuli,
        )
        result = recheck_certificate(impl, spec, doctored, stimuli)
        assert not result.holds

    def test_missing_init_pair_fails(self, env):
        impl, spec, stimuli, certificate = searched_certificate(env)
        init_pairs = {(s0, t0) for s0 in impl.init for t0 in spec.init}
        stripped = SimulationCertificate(
            relation=certificate.relation - init_pairs,
            impl_states=certificate.impl_states,
            spec_states=certificate.spec_states,
            iterations=certificate.iterations,
            stimuli=certificate.stimuli,
        )
        result = recheck_certificate(impl, spec, stripped, stimuli)
        assert not result.holds
        assert result.violation.kind == "init"

    def test_stimuli_mismatch_refused(self, env):
        impl, spec, stimuli, certificate = searched_certificate(env)
        other = {port: (0, 1, 2) for port in stimuli}
        result = recheck_certificate(impl, spec, certificate, other)
        assert not result.holds

    def test_wrong_modules_rejected(self, env):
        impl, spec, stimuli, certificate = searched_certificate(env)
        other = denote(wide_graph(2).lower(), env)
        # wide ⊑ chain does not hold, so chain's certificate must not pass
        # as evidence for it.
        result = recheck_certificate(other, impl, certificate, None)
        assert not result.holds

    def test_interface_mismatch_rejected(self, env):
        impl, spec, stimuli, certificate = searched_certificate(env)
        forked = ExprHigh()
        forked.add_node("f", fork(2))
        forked.mark_input(0, "f", "in0")
        forked.mark_output(0, "f", "out0")
        forked.mark_output(1, "f", "out1")
        other = denote(forked.lower(), env)
        result = recheck_certificate(other, spec, certificate, None)
        assert not result.holds
        assert result.violation.kind == "interface"


def obligation_key(lhs, rhs, env):
    """The key check_rewrite_obligation uses for its default stimuli."""
    rhs_module = denote(rhs.lower(), env)
    stimuli = uniform_stimuli(rhs_module, (0, 1))
    return certificate_key(rhs, lhs, env, stimuli, spec_capacity=4)


class TestCacheFallback:
    """The obligation-level guarantee: corruption costs time, not soundness."""

    def counters(self):
        return dict(obs.get_tracer().counters)

    def test_cold_search_then_warm_recheck(self, env, tmp_path):
        cache = ResultCache(tmp_path)
        lhs, rhs = wide_graph(2), chain_graph(2)
        cold = check_rewrite_obligation(lhs, rhs, env, cache=cache)
        assert cold.mode == "search"
        warm = check_rewrite_obligation(lhs, rhs, env, cache=cache)
        assert warm.mode == "recheck"
        assert warm.certificate.content_hash() == cold.certificate.content_hash()

    def test_unwritable_shard_still_returns_the_verdict(self, env, tmp_path):
        # A plain file where the certificate's shard directory should be
        # (chmod would not stop root): the search's certificate comes back,
        # the dropped entry is counted, and the next check searches again.
        cache = ResultCache(tmp_path)
        lhs, rhs = wide_graph(2), chain_graph(2)
        uncached = check_rewrite_obligation(lhs, rhs, env)
        key = obligation_key(lhs, rhs, env)
        (tmp_path / key[:2]).write_text("not a directory")
        with obs.scoped_tracer() as tracer:
            report = check_rewrite_obligation(lhs, rhs, env, cache=cache)
        assert report.mode == "search"
        assert report.certificate.content_hash() == uncached.certificate.content_hash()
        assert tracer.counters["cache.write_failures"] == 1
        assert cache.get_bytes(key) is None
        assert check_rewrite_obligation(lhs, rhs, env, cache=cache).mode == "search"

    def test_serialized_tampering_falls_back_to_search(self, env, tmp_path):
        cache = ResultCache(tmp_path)
        lhs, rhs = wide_graph(2), chain_graph(2)
        check_rewrite_obligation(lhs, rhs, env, cache=cache)
        key = obligation_key(lhs, rhs, env)
        blob = cache.get_bytes(key)
        assert blob is not None  # fresh certificates persist in binary form
        # Zero out the tail: the container's integrity hash must reject it.
        cache.put_bytes(key, blob[:-24] + bytes(24))
        before = self.counters()
        report = check_rewrite_obligation(lhs, rhs, env, cache=cache)
        after = self.counters()
        assert report.mode == "search-fallback"  # fell back, did not trust the entry
        assert after.get("refinement.cert_recheck_failures", 0) > before.get(
            "refinement.cert_recheck_failures", 0
        )
        # ...and the fallback repaired the cache with a fresh certificate.
        assert check_rewrite_obligation(lhs, rhs, env, cache=cache).mode == "recheck"

    def test_json_entry_is_never_read(self, env, tmp_path):
        """Only binary entries are evidence: a JSON certificate under the
        key (the pre-format-2 layout) is ignored, so the check searches."""
        cache = ResultCache(tmp_path)
        lhs, rhs = wide_graph(2), chain_graph(2)
        good = check_rewrite_obligation(lhs, rhs, env, cache=cache)
        key = obligation_key(lhs, rhs, env)
        cache.bin_path_for(key).unlink()  # leave only a JSON entry
        cache.put(key, good.certificate.to_dict())
        report = check_rewrite_obligation(lhs, rhs, env, cache=cache)
        assert report.mode == "search"

    def test_hash_consistent_corruption_never_yields_wrong_holds(self, env, tmp_path):
        """The strongest tamper case: a certificate for a NON-refinement,
        re-serialised with a self-consistent hash, planted under the key of
        the failing obligation.  The recheck must fail a diagram and the
        obligation must still raise, not report holds."""
        cache = ResultCache(tmp_path)
        # wide ⊑ chain genuinely fails...
        lhs, rhs = chain_graph(2), wide_graph(2)
        with pytest.raises(RefinementError):
            check_rewrite_obligation(lhs, rhs, env, cache=cache)
        # ...now plant valid-looking evidence (the cert of the *converse*,
        # which serialises with a perfectly consistent hash) under its key.
        good = check_rewrite_obligation(wide_graph(2), chain_graph(2), env)
        key = obligation_key(lhs, rhs, env)
        cache.put_bytes(key, certificate_to_bytes(good.certificate))
        before = self.counters().get("refinement.cert_recheck_failures", 0)
        with pytest.raises(RefinementError):
            check_rewrite_obligation(lhs, rhs, env, cache=cache)
        # the planted evidence was loaded and rejected, not missed
        assert self.counters()["refinement.cert_recheck_failures"] == before + 1

    def test_pure_mismatch_not_rescued_by_planted_cert(self, env, tmp_path):
        cache = ResultCache(tmp_path)
        lhs, rhs = ExprHigh(), ExprHigh()
        lhs.add_node("p", pure("id"))
        rhs.add_node("p", pure("incr"))
        for g in (lhs, rhs):
            g.mark_input(0, "p", "in0")
            g.mark_output(0, "p", "out0")
        good = check_rewrite_obligation(lhs, lhs, env)  # id ⊑ id holds
        key = obligation_key(lhs, rhs, env)
        cache.put_bytes(key, certificate_to_bytes(good.certificate))
        before = self.counters().get("refinement.cert_recheck_failures", 0)
        with pytest.raises(RefinementError):
            check_rewrite_obligation(lhs, rhs, env, cache=cache)
        # the planted evidence was loaded and rejected, not missed
        assert self.counters()["refinement.cert_recheck_failures"] == before + 1
