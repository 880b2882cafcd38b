"""Property: recheck accepts exactly the certificates search emits.

This fuzzes the certificate layer's core contract (docs/verification.md):
for a random bounded instance, `find_weak_simulation` either produces a
certificate that survives a serialise → hash → deserialise → recheck round
trip through the binary container with a stable content hash, or a
violation — and a certificate minted for one instance is refused as
evidence for another.  Any bit flip or truncation of the container is
rejected outright.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.components import buffer, default_environment, pure
from repro.core import ExprHigh
from repro.core.semantics import denote
from repro.errors import CertificateError
from repro.refinement import (
    certificate_from_bytes,
    certificate_to_bytes,
    find_weak_simulation,
    recheck_certificate,
    uniform_stimuli,
)


def chain_graph(length, fn=None):
    graph = ExprHigh()
    names = []
    for i in range(length):
        name = f"b{i}"
        graph.add_node(name, buffer(slots=1))
        names.append(name)
    if fn is not None:
        graph.add_node("p", pure(fn))
        names.append("p")
    for left, right in zip(names, names[1:]):
        graph.connect(left, "out0", right, "in0")
    graph.mark_input(0, names[0], "in0")
    graph.mark_output(0, names[-1], "out0")
    return graph


def wide_graph(slots, fn=None):
    graph = ExprHigh()
    graph.add_node("b", buffer(slots=slots))
    if fn is not None:
        graph.add_node("p", pure(fn))
        graph.connect("b", "out0", "p", "in0")
    graph.mark_input(0, "b", "in0")
    graph.mark_output(0, ("p" if fn is not None else "b"), "out0")
    return graph


@st.composite
def bounded_instances(draw):
    """A random (impl, spec, stimuli) triple; refinement may or may not hold."""
    env = default_environment(capacity=draw(st.integers(1, 2)))
    length = draw(st.integers(1, 3))
    slots = draw(st.integers(1, 3))
    fn = draw(st.sampled_from([None, "id", "incr"]))
    values = draw(
        st.sampled_from([(0,), (0, 1), (0, 1, 2), (7,), (1, 2)])
    )
    impl = denote(chain_graph(length, fn).lower(), env)
    spec = denote(wide_graph(slots, fn).lower(), env)
    stimuli = uniform_stimuli(impl, values)
    return impl, spec, stimuli


class TestRecheckMatchesSearch:
    @given(bounded_instances())
    @settings(max_examples=40, deadline=None)
    def test_roundtripped_certificate_rechecks_iff_search_holds(self, instance):
        impl, spec, stimuli = instance
        result = find_weak_simulation(impl, spec, stimuli)
        if not result.holds:
            assert result.violation is not None
            assert result.certificate is None
            return
        certificate = result.certificate
        restored = certificate_from_bytes(certificate_to_bytes(certificate))
        assert restored.content_hash() == certificate.content_hash()
        rechecked = recheck_certificate(impl, spec, restored, stimuli)
        assert rechecked.holds
        # The recheck returns the same evidence it was given, byte for byte.
        assert rechecked.certificate.content_hash() == certificate.content_hash()

    @given(bounded_instances())
    @settings(max_examples=25, deadline=None)
    def test_relation_is_a_simulation_even_without_stimuli_argument(self, instance):
        impl, spec, stimuli = instance
        result = find_weak_simulation(impl, spec, stimuli)
        if not result.holds:
            return
        # The certificate records its stimulus domain, so rechecking with
        # stimuli=None replays the same bounded instance.
        assert recheck_certificate(impl, spec, result.certificate).holds


class TestBinaryContainer:
    @given(bounded_instances(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_any_bit_flip_is_rejected(self, instance, data):
        impl, spec, stimuli = instance
        result = find_weak_simulation(impl, spec, stimuli)
        if not result.holds:
            return
        blob = bytearray(certificate_to_bytes(result.certificate))
        # The integrity hash covers the whole payload and the envelope
        # covers the header, so a flip anywhere — magic, version, digest,
        # or any interned table — must be rejected, never mis-decoded.
        position = data.draw(st.integers(0, len(blob) - 1))
        bit = data.draw(st.integers(0, 7))
        blob[position] ^= 1 << bit
        with pytest.raises(CertificateError):
            certificate_from_bytes(bytes(blob))

    @given(bounded_instances(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_any_truncation_is_rejected(self, instance, data):
        impl, spec, stimuli = instance
        result = find_weak_simulation(impl, spec, stimuli)
        if not result.holds:
            return
        blob = certificate_to_bytes(result.certificate)
        keep = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(CertificateError):
            certificate_from_bytes(blob[:keep])


class TestCertificateIsInstanceSpecific:
    def test_stimuli_mismatch_is_refused(self):
        env = default_environment(capacity=2)
        impl = denote(chain_graph(2).lower(), env)
        spec = denote(wide_graph(2).lower(), env)
        narrow = uniform_stimuli(impl, (0, 1))
        wide_domain = uniform_stimuli(impl, (0, 1, 2))
        certificate = find_weak_simulation(impl, spec, narrow).certificate
        assert certificate is not None
        rejected = recheck_certificate(impl, spec, certificate, wide_domain)
        assert not rejected.holds
        assert rejected.violation.kind == "interface"

    def test_certificate_for_other_modules_is_refused(self):
        env = default_environment(capacity=2)
        impl = denote(chain_graph(2).lower(), env)
        spec = denote(wide_graph(2).lower(), env)
        stimuli = uniform_stimuli(impl, (0, 1))
        certificate = find_weak_simulation(impl, spec, stimuli).certificate
        # wide ⊑ chain fails outright, and the chain ⊑ wide certificate must
        # not smuggle in a "holds" for it.
        assert not recheck_certificate(spec, impl, certificate, None).holds
