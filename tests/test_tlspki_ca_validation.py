"""Unit tests for the CA, issuance policy, and chain validation."""

import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.tlspki import (
    CertificateAuthority,
    CertificateError,
    IssuancePolicy,
    TrustStore,
    validate_chain,
)


@pytest.fixture
def pki():
    rng = np.random.default_rng(42)
    root = CertificateAuthority("Root CA", rng=rng)
    intermediate = CertificateAuthority(
        "Intermediate CA", rng=rng, parent=root
    )
    store = TrustStore([root])
    return root, intermediate, store


class TestIssuance:
    def test_subject_auto_added_to_san(self, pki):
        _, intermediate, _ = pki
        cert = intermediate.issue("www.example.com", ("cdn.example.com",))
        assert "www.example.com" in cert.san
        assert cert.san[0] == "www.example.com"

    def test_wildcard_subject_not_duplicated(self, pki):
        _, intermediate, _ = pki
        cert = intermediate.issue("*.example.com", ("*.example.com",))
        assert cert.san == ("*.example.com",)

    def test_serials_increment(self, pki):
        _, intermediate, _ = pki
        a = intermediate.issue("a.example.com", ())
        b = intermediate.issue("b.example.com", ())
        assert b.serial == a.serial + 1

    def test_issuer_recorded(self, pki):
        _, intermediate, _ = pki
        cert = intermediate.issue("www.example.com", ())
        # Issuer names are case-normalized like hostnames.
        assert cert.issuer == "intermediate ca"

    def test_san_limit_enforced(self):
        ca = CertificateAuthority(
            "Limited CA", policy=IssuancePolicy(max_san_names=3)
        )
        names = tuple(f"h{i}.example.com" for i in range(5))
        with pytest.raises(CertificateError):
            ca.issue("www.example.com", names)

    def test_comodo_style_large_limit(self):
        ca = CertificateAuthority(
            "Comodo-like", policy=IssuancePolicy(max_san_names=2000)
        )
        names = tuple(f"h{i}.example.com" for i in range(1500))
        cert = ca.issue("www.example.com", names)
        assert cert.san_count == 1501

    def test_issuance_log(self, pki):
        _, intermediate, _ = pki
        first = intermediate.issue("a.example.com", ())
        second = intermediate.issue("b.example.com", ())
        assert intermediate.issued == [first, second]
        assert first.serial != second.serial

    def test_signature_verifies_with_issuer_only(self, pki):
        root, intermediate, _ = pki
        cert = intermediate.issue("www.example.com", ())
        assert intermediate.verify(cert)
        assert not root.verify(cert)


class TestReissue:
    def test_reissue_adds_san_and_new_serial(self, pki):
        _, intermediate, _ = pki
        original = intermediate.issue("www.example.com", ())
        renewed = intermediate.reissue(
            original, added_san=("thirdparty.cdn.com",)
        )
        assert "thirdparty.cdn.com" in renewed.san
        assert set(original.san) <= set(renewed.san)
        assert renewed.serial != original.serial
        assert intermediate.verify(renewed)

    def test_reissue_preserves_lifetime(self, pki):
        _, intermediate, _ = pki
        original = intermediate.issue("www.example.com", (), now=100.0)
        renewed = intermediate.reissue(original)
        assert (renewed.not_after - renewed.not_before) == pytest.approx(
            original.not_after - original.not_before
        )

    def test_reissue_by_wrong_ca_rejected(self, pki):
        root, intermediate, _ = pki
        cert = intermediate.issue("www.example.com", ())
        with pytest.raises(CertificateError):
            root.reissue(cert)


class TestChains:
    def test_chain_for_leaf_ends_at_root(self, pki):
        root, intermediate, _ = pki
        leaf = intermediate.issue("www.example.com", ())
        chain = intermediate.chain_for(leaf)
        assert [c.subject for c in chain] == [
            "www.example.com", "intermediate ca", "root ca",
        ]

    def test_root_certificate_is_self_signed(self, pki):
        root, _, _ = pki
        assert root.certificate.issuer == root.certificate.subject
        assert root.verify(root.certificate)


class TestValidation:
    def validate(self, pki, chain, hostname, now=1.0):
        root, intermediate, store = pki
        return validate_chain(
            chain, hostname, now, store, [root, intermediate]
        )

    def test_valid_chain_passes(self, pki):
        _, intermediate, _ = pki
        leaf = intermediate.issue("www.example.com", ())
        result = self.validate(pki, intermediate.chain_for(leaf),
                               "www.example.com")
        assert result.ok, result.errors

    def test_every_link_signature_is_checked(self, pki):
        _, intermediate, _ = pki
        leaf = intermediate.issue("www.example.com", ())
        chain = list(intermediate.chain_for(leaf))
        for depth in range(len(chain)):
            tampered = list(chain)
            tampered[depth] = replace(chain[depth], signature=b"forged")
            result = self.validate(pki, tampered, "www.example.com")
            assert not result.ok
            assert any(f"bad signature on {chain[depth].subject!r}" in e
                       for e in result.errors)

    def test_hostname_mismatch_fails(self, pki):
        _, intermediate, _ = pki
        leaf = intermediate.issue("www.example.com", ())
        result = self.validate(pki, intermediate.chain_for(leaf),
                               "other.example.com")
        assert not result.ok
        assert any("not covered" in e for e in result.errors)

    def test_wildcard_san_validates_subdomain(self, pki):
        _, intermediate, _ = pki
        leaf = intermediate.issue("*.example.com", ())
        result = self.validate(pki, intermediate.chain_for(leaf),
                               "shard7.example.com")
        assert result.ok

    def test_expired_leaf_fails(self, pki):
        _, intermediate, _ = pki
        leaf = intermediate.issue("www.example.com", (), now=0.0,
                                  lifetime_ms=10.0)
        result = self.validate(pki, intermediate.chain_for(leaf),
                               "www.example.com", now=100.0)
        assert not result.ok
        assert any("expired" in e for e in result.errors)

    def test_untrusted_root_fails(self, pki):
        _, intermediate, _ = pki
        rogue_root = CertificateAuthority("Rogue Root")
        rogue_mid = CertificateAuthority("Rogue Mid", parent=rogue_root)
        leaf = rogue_mid.issue("www.example.com", ())
        root, _, store = pki
        result = validate_chain(
            rogue_mid.chain_for(leaf), "www.example.com", 1.0, store,
            [root, intermediate, rogue_root, rogue_mid],
        )
        assert not result.ok
        assert any("not in trust store" in e for e in result.errors)

    def test_tampered_certificate_fails(self, pki):
        _, intermediate, _ = pki
        leaf = intermediate.issue("www.example.com", ())
        forged = leaf.with_added_san("evil.example.com")
        # Attacker re-attaches the old signature to modified content.
        object.__setattr__(forged, "signature", leaf.signature)
        chain = [forged] + intermediate.chain()
        result = self.validate(pki, chain, "evil.example.com")
        assert not result.ok
        assert any("bad signature" in e for e in result.errors)

    def test_broken_chain_linkage_fails(self, pki):
        root, intermediate, store = pki
        leaf = intermediate.issue("www.example.com", ())
        # Skip the intermediate: leaf claims Intermediate CA but next is root.
        chain = [leaf, root.certificate]
        result = validate_chain(chain, "www.example.com", 1.0, store,
                                [root, intermediate])
        assert not result.ok
        assert any("chain break" in e for e in result.errors)

    def test_empty_chain_fails(self, pki):
        result = self.validate(pki, [], "www.example.com")
        assert not result.ok

    def test_leaf_with_ca_flag_fails(self, pki):
        root, intermediate, store = pki
        chain = [intermediate.certificate, root.certificate]
        result = validate_chain(chain, "www.example.com", 1.0, store,
                                [root, intermediate])
        assert not result.ok
        assert any("CA flag" in e for e in result.errors)

    def test_trust_store_rejects_intermediates(self, pki):
        _, intermediate, _ = pki
        with pytest.raises(ValueError):
            TrustStore([intermediate])

    def test_validation_reports_all_errors(self, pki):
        _, intermediate, _ = pki
        leaf = intermediate.issue("www.example.com", (), lifetime_ms=1.0)
        result = self.validate(pki, intermediate.chain_for(leaf),
                               "wrong.example.com", now=100.0)
        assert len(result.errors) >= 2


#: Prints a default-keyed CA's signature, then a seeded world's issuer
#: signature and first leaf fingerprint.
_KEY_PROBE = """
from repro.dataset.generator import DatasetConfig
from repro.dataset.world import build_world
from repro.tlspki import CertificateAuthority

print(CertificateAuthority("Probe CA").certificate.signature.hex())
world = build_world(DatasetConfig(site_count=4, seed=1))
leaf = world.sites[0].certificate
print(world.issuer(leaf.issuer).certificate.signature.hex())
print(leaf.fingerprint())
"""


class TestHashSeedIndependence:
    """CA keys are seeded from the CA's name, which must give the same
    key in every interpreter: ``hash(str)`` is salted per process."""

    @staticmethod
    def probe(hash_seed: str) -> str:
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _KEY_PROBE], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_keys_and_fingerprints_ignore_the_hash_seed(self):
        first = self.probe("1")
        assert len(first.split()) == 3
        assert self.probe("2") == first
