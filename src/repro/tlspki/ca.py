"""Certificate authority: keys, issuance, re-issuance, chains.

Signing is modelled with HMAC-style keyed hashing: a CA's "private key"
is a random byte string; a signature over TBS bytes is
``sha256(key || tbs)``.  Verification recomputes the hash with the
issuer's key, so chains validate exactly when the real issuer signed
them -- the same trust topology as real PKI without real crypto.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.dnssim.records import normalize_name
from repro.tlspki.certificate import Certificate, CertificateError

#: Default leaf validity: 90 days in ms, the Let's Encrypt convention.
DEFAULT_LEAF_LIFETIME_MS = 90.0 * 24 * 3600 * 1000

#: Default CA validity: 10 years in ms.
DEFAULT_CA_LIFETIME_MS = 10.0 * 365 * 24 * 3600 * 1000


def name_seed(name: str) -> int:
    """A 32-bit seed from ``name`` that every interpreter agrees on
    (``hash(str)`` is salted per process)."""
    return zlib.crc32(name.encode())


@dataclass(frozen=True)
class IssuancePolicy:
    """Limits a CA imposes on what it will issue.

    ``max_san_names`` models the per-CA limits the paper catalogues in
    §6.5: Let's Encrypt/DigiCert/GoDaddy cap at 100 names, Comodo at
    2000.
    """

    max_san_names: int = 100
    leaf_lifetime_ms: float = DEFAULT_LEAF_LIFETIME_MS


class CertificateAuthority:
    """Issues and signs certificates; may be a root or an intermediate."""

    def __init__(
        self,
        name: str,
        rng: Optional[np.random.Generator] = None,
        policy: Optional[IssuancePolicy] = None,
        parent: Optional["CertificateAuthority"] = None,
        now: float = 0.0,
    ) -> None:
        if not name:
            raise CertificateError("CA needs a name")
        self.name = name
        self.policy = policy or IssuancePolicy()
        self.parent = parent
        rng = rng or np.random.default_rng(name_seed(name))
        self._key = rng.bytes(32)
        self._serial = 1
        self.issued: List[Certificate] = []
        # Self-signed root or parent-signed intermediate certificate.
        lifetime = DEFAULT_CA_LIFETIME_MS
        ca_cert = Certificate(
            subject=name,
            san=(),
            issuer=parent.name if parent else name,
            serial=0,
            not_before=now,
            not_after=now + lifetime,
            is_ca=True,
            public_key=hashlib.sha256(self._key).digest(),
        )
        signer = parent if parent is not None else self
        self.certificate = signer._sign(ca_cert)

    # -- signing ----------------------------------------------------------

    def _sign(self, certificate: Certificate) -> Certificate:
        signature = hashlib.sha256(
            self._key + certificate.tbs_bytes()
        ).digest()
        return Certificate(
            subject=certificate.subject,
            san=certificate.san,
            issuer=self.name,
            serial=certificate.serial,
            not_before=certificate.not_before,
            not_after=certificate.not_after,
            is_ca=certificate.is_ca,
            public_key=certificate.public_key,
            signature=signature,
        )

    def verify(self, certificate: Certificate) -> bool:
        """True when this CA's key produced the certificate's signature."""
        expected = hashlib.sha256(
            self._key + certificate.tbs_bytes()
        ).digest()
        return certificate.signature == expected

    # -- issuance ------------------------------------------------------------

    def issue(
        self,
        subject: str,
        san: Tuple[str, ...],
        now: float = 0.0,
        lifetime_ms: Optional[float] = None,
        include_subject_in_san: bool = True,
    ) -> Certificate:
        """Issue and sign a leaf certificate.

        The subject is automatically included in the SAN if missing, as
        CAs do in practice (browsers only check SAN).  Pass
        ``include_subject_in_san=False`` to mint a legacy no-SAN
        certificate (paper §4.3 found 11,131 sites serving them).
        """
        subject = normalize_name(subject)
        san_list = [normalize_name(s) for s in san]
        if include_subject_in_san and subject not in san_list:
            san_list.insert(0, subject)
        if len(san_list) > self.policy.max_san_names:
            raise CertificateError(
                f"{self.name} refuses {len(san_list)} SAN names "
                f"(limit {self.policy.max_san_names})"
            )
        lifetime = lifetime_ms or self.policy.leaf_lifetime_ms
        unsigned = Certificate(
            subject=subject,
            san=tuple(san_list),
            issuer=self.name,
            serial=self._serial,
            not_before=now,
            not_after=now + lifetime,
            public_key=hashlib.sha256(
                self._key + str(self._serial).encode()
            ).digest(),
        )
        self._serial += 1
        signed = self._sign(unsigned)
        self.issued.append(signed)
        return signed

    def reissue(
        self,
        certificate: Certificate,
        added_san: Tuple[str, ...] = (),
        now: Optional[float] = None,
    ) -> Certificate:
        """Re-issue an existing certificate with extra SAN entries.

        This is the deployment operation from paper §5.1/Figure 6: the
        renewed certificate keeps the subject and existing SAN set, adds
        the new names, gets a fresh serial and validity window, and is
        signed again.
        """
        if certificate.issuer != normalize_name(self.name):
            raise CertificateError(
                f"{self.name} cannot reissue a certificate from "
                f"{certificate.issuer}"
            )
        start = certificate.not_before if now is None else now
        merged = certificate.with_added_san(*added_san)
        return self.issue(
            certificate.subject,
            merged.san,
            now=start,
            lifetime_ms=certificate.not_after - certificate.not_before,
        )

    def chain(self) -> List[Certificate]:
        """This CA's certificate followed by its ancestors up to the root."""
        chain: List[Certificate] = []
        authority: Optional[CertificateAuthority] = self
        while authority is not None:
            chain.append(authority.certificate)
            authority = authority.parent
        return chain

    def chain_for(self, leaf: Certificate) -> List[Certificate]:
        """Full presentation chain: leaf, then issuing CAs to the root."""
        return [leaf] + self.chain()

    def __repr__(self) -> str:
        kind = "intermediate" if self.parent else "root"
        return f"CertificateAuthority({self.name!r}, {kind})"
