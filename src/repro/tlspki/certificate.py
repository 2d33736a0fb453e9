"""Certificate model with SAN extension.

A :class:`Certificate` is a simplified X.509 leaf/intermediate/root: it
carries a subject, an ordered tuple of DNS SAN entries, validity
window, issuer linkage, and a signature computed over its to-be-signed
(TBS) serialization.  Sizes are estimated from realistic DER overheads
so that handshake-cost modelling (paper §6.5) behaves like production.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Tuple

from repro.dnssim.records import normalize_name

#: DER overhead of a typical RSA-2048 leaf certificate with no SANs:
#: key (~294B), signature (~256B), names/validity/extensions (~650B).
BASE_CERTIFICATE_BYTES = 1200

#: Per-SAN overhead: the encoded GeneralName adds a 2-byte header.
SAN_ENTRY_OVERHEAD_BYTES = 2


class CertificateError(Exception):
    """Malformed certificate content or invalid operation."""


def hostname_matches(pattern: str, hostname: str) -> bool:
    """RFC 6125 presented-identifier matching.

    A wildcard must be the entire left-most label (``*.example.com``)
    and matches exactly one label: ``foo.example.com`` yes,
    ``a.b.example.com`` no, ``example.com`` no.
    """
    pattern = normalize_name(pattern)
    hostname = normalize_name(hostname)
    if not pattern or not hostname:
        return False
    if "*" not in pattern:
        return pattern == hostname
    labels = pattern.split(".")
    if labels[0] != "*" or "*" in ".".join(labels[1:]):
        return False  # wildcard only allowed as the whole first label
    host_labels = hostname.split(".")
    if len(host_labels) != len(labels):
        return False
    return host_labels[1:] == labels[1:]


def estimate_certificate_size(san_names: Tuple[str, ...]) -> int:
    """Estimated DER size in bytes for a cert with the given SAN list."""
    return BASE_CERTIFICATE_BYTES + sum(
        len(name) + SAN_ENTRY_OVERHEAD_BYTES for name in san_names
    )


@dataclass(frozen=True)
class Certificate:
    """An issued certificate.

    ``signature`` is empty until a :class:`~repro.tlspki.ca.CertificateAuthority`
    signs the TBS bytes; an unsigned certificate never validates.
    """

    subject: str
    san: Tuple[str, ...]
    issuer: str
    serial: int
    not_before: float
    not_after: float
    is_ca: bool = False
    public_key: bytes = b""
    signature: bytes = b""

    def __post_init__(self) -> None:
        if not self.subject:
            raise CertificateError("certificate must have a subject")
        if self.not_after <= self.not_before:
            raise CertificateError(
                f"validity window is empty: "
                f"[{self.not_before}, {self.not_after}]"
            )
        normalized = tuple(normalize_name(n) for n in self.san)
        for name in normalized:
            if not name:
                raise CertificateError("empty SAN entry")
            if "*" in name and not name.startswith("*."):
                raise CertificateError(f"malformed wildcard SAN {name!r}")
        object.__setattr__(self, "san", normalized)
        # Subject and issuer are compared case-insensitively everywhere
        # (hostnames for leaves, CA display names for issuers).
        object.__setattr__(self, "subject", normalize_name(self.subject))
        object.__setattr__(self, "issuer", normalize_name(self.issuer))

    # -- identity -----------------------------------------------------------

    @property
    def san_count(self) -> int:
        return len(self.san)

    @property
    def size_bytes(self) -> int:
        return estimate_certificate_size(self.san)

    def covers(self, hostname: str) -> bool:
        """True when ``hostname`` matches a SAN entry.

        A certificate with an *empty* SAN falls back to legacy subject
        CN matching -- the paper found 11,131 sites still serving
        no-SAN certificates (§4.3); such certificates identify exactly
        one name and can never coalesce additional hostnames.
        """
        if not self.san:
            return hostname_matches(self.subject, hostname)
        return any(hostname_matches(entry, hostname) for entry in self.san)

    def with_added_san(self, *names: str) -> "Certificate":
        """A re-issued copy with extra SAN entries (deduplicated, order
        preserved).  The copy is unsigned; the CA must sign it again."""
        merged = list(self.san)
        for name in names:
            name = normalize_name(name)
            if name not in merged:
                merged.append(name)
        return replace(
            self, san=tuple(merged), signature=b"", serial=self.serial
        )

    # -- signing ---------------------------------------------------------------

    def tbs_bytes(self) -> bytes:
        """Deterministic serialization of the to-be-signed fields."""
        parts = [
            self.subject,
            "|".join(self.san),
            self.issuer,
            str(self.serial),
            f"{self.not_before:.3f}",
            f"{self.not_after:.3f}",
            "CA" if self.is_ca else "EE",
            self.public_key.hex(),
        ]
        return "\n".join(parts).encode("utf-8")

    def fingerprint(self) -> str:
        """SHA-256 over TBS bytes plus signature, hex-encoded."""
        return hashlib.sha256(self.tbs_bytes() + self.signature).hexdigest()

    def valid_at(self, now: float) -> bool:
        return self.not_before <= now <= self.not_after

    def __repr__(self) -> str:
        return (
            f"Certificate(subject={self.subject!r}, sans={self.san_count}, "
            f"issuer={self.issuer!r}, serial={self.serial})"
        )
