"""Tests for the CT log and the handshake model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tlspki import (
    CertificateAuthority,
    CtLog,
    HandshakeConfig,
    TLS_RECORD_SIZE,
    TlsVersion,
    simulate_handshake,
)
from repro.tlspki.handshake import INITIAL_CWND_BYTES, chain_bytes


@pytest.fixture
def ca():
    return CertificateAuthority("Test CA", rng=np.random.default_rng(1))


def issue_many(ca, count):
    return [ca.issue(f"site{i}.example.com", ()) for i in range(count)]


class TestCtLog:
    def test_append_returns_sequential_indices(self, ca):
        log = CtLog()
        certs = issue_many(ca, 3)
        assert [log.append(c) for c in certs] == [0, 1, 2]

    def test_root_changes_on_append(self, ca):
        log = CtLog()
        certs = issue_many(ca, 2)
        log.append(certs[0])
        r1 = log.root_hash()
        log.append(certs[1])
        assert log.root_hash() != r1

    def test_historical_roots_are_stable(self, ca):
        log = CtLog()
        certs = issue_many(ca, 5)
        roots = []
        for cert in certs:
            log.append(cert)
            roots.append(log.root_hash())
        for size, root in enumerate(roots, start=1):
            assert log.root_hash(size) == root

    def test_inclusion_proofs_verify(self, ca):
        log = CtLog()
        certs = issue_many(ca, 7)
        for cert in certs:
            log.append(cert)
        for index, cert in enumerate(certs):
            proof = log.inclusion_proof(index)
            assert log.verify_inclusion(cert, proof)

    def test_inclusion_proof_fails_for_wrong_cert(self, ca):
        log = CtLog()
        certs = issue_many(ca, 4)
        for cert in certs:
            log.append(cert)
        proof = log.inclusion_proof(0)
        assert not log.verify_inclusion(certs[1], proof)

    def test_historical_inclusion_proof(self, ca):
        log = CtLog()
        certs = issue_many(ca, 6)
        for cert in certs:
            log.append(cert)
        proof = log.inclusion_proof(1, tree_size=3)
        assert log.verify_inclusion(certs[1], proof)

    def test_invalid_proof_requests_rejected(self, ca):
        log = CtLog()
        log.append(issue_many(ca, 1)[0])
        with pytest.raises(ValueError):
            log.inclusion_proof(5)
        with pytest.raises(ValueError):
            log.root_hash(10)

    def test_append_window_counting(self, ca):
        log = CtLog()
        certs = issue_many(ca, 4)
        times = [0.0, 10.0, 20.0, 30.0]
        for cert, t in zip(certs, times):
            log.append(cert, now=t)
        assert log.appends_in_window(5.0, 25.0) == 2

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=40))
    def test_all_leaves_provable_at_any_size(self, n):
        ca = CertificateAuthority("Prop CA", rng=np.random.default_rng(n))
        log = CtLog()
        certs = issue_many(ca, n)
        for cert in certs:
            log.append(cert)
        for index in range(n):
            proof = log.inclusion_proof(index)
            assert log.verify_inclusion(certs[index], proof)


class TestHandshake:
    def small_chain(self, ca):
        leaf = ca.issue("www.example.com", ())
        return ca.chain_for(leaf)

    def test_tls13_uses_one_rtt(self, ca):
        result = simulate_handshake(
            self.small_chain(ca),
            HandshakeConfig(version=TlsVersion.TLS13, rtt_ms=30.0),
        )
        assert result.rtts_used == 1.0

    def test_tls12_uses_two_rtts(self, ca):
        result = simulate_handshake(
            self.small_chain(ca),
            HandshakeConfig(version=TlsVersion.TLS12, rtt_ms=30.0),
        )
        assert result.rtts_used == 2.0

    def test_duration_scales_with_rtt(self, ca):
        chain = self.small_chain(ca)
        fast = simulate_handshake(chain, HandshakeConfig(rtt_ms=10.0))
        slow = simulate_handshake(chain, HandshakeConfig(rtt_ms=100.0))
        assert slow.duration_ms > fast.duration_ms

    def test_resumed_tls13_is_free(self, ca):
        result = simulate_handshake(
            self.small_chain(ca),
            HandshakeConfig(resumed=True, sni_hostname="www.example.com"),
        )
        assert result.duration_ms == 0.0
        assert result.signature_checks == 0

    def test_large_certificate_spills_records_and_flights(self):
        ca = CertificateAuthority(
            "Big CA",
            policy=__import__(
                "repro.tlspki.ca", fromlist=["IssuancePolicy"]
            ).IssuancePolicy(max_san_names=10_000),
        )
        names = tuple(f"host-{i:05d}.example.com" for i in range(2_000))
        leaf = ca.issue("www.example.com", names)
        chain = ca.chain_for(leaf)
        assert chain_bytes(chain) > TLS_RECORD_SIZE
        result = simulate_handshake(chain, HandshakeConfig(rtt_ms=30.0))
        assert result.records_needed > 1
        assert result.extra_flights >= 1
        small = simulate_handshake(
            ca.chain_for(ca.issue("small.example.com", ())),
            HandshakeConfig(rtt_ms=30.0),
        )
        assert result.duration_ms > small.duration_ms + 30.0

    def test_flights_follow_cwnd(self, ca):
        chain = self.small_chain(ca)
        assert chain_bytes(chain) + 1500 < INITIAL_CWND_BYTES
        result = simulate_handshake(chain, HandshakeConfig())
        assert result.extra_flights == 0

    def test_sni_leaks_without_ech(self, ca):
        result = simulate_handshake(
            self.small_chain(ca),
            HandshakeConfig(sni_hostname="secret.example.com"),
        )
        assert result.sni_plaintext == "secret.example.com"

    def test_ech_hides_sni(self, ca):
        result = simulate_handshake(
            self.small_chain(ca),
            HandshakeConfig(sni_hostname="secret.example.com",
                            ech_enabled=True),
        )
        assert not result.sni_plaintext

    def test_cpu_cost_scales_with_chain(self, ca):
        result = simulate_handshake(self.small_chain(ca), HandshakeConfig())
        assert result.signature_checks == 2
        assert result.cpu_ms == pytest.approx(2 * 0.15)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            HandshakeConfig(rtt_ms=-1.0)
        with pytest.raises(ValueError):
            HandshakeConfig(bandwidth_bpms=0.0)
