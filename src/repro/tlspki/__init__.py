"""TLS and PKI substrate.

Models the certificate machinery the paper's coalescing analysis rests
on: certificates with Subject Alternative Name (SAN) extensions,
certificate-authority issuance and chains, chain validation, handshake
cost (including the 16KB-record spill for oversized certificates,
paper §6.5), and Certificate Transparency logs (paper §6.4).
"""

from repro.tlspki.certificate import (
    Certificate,
    CertificateError,
    hostname_matches,
    estimate_certificate_size,
)
from repro.tlspki.ca import CertificateAuthority, IssuancePolicy
from repro.tlspki.validation import (
    TrustStore,
    ValidationResult,
    validate_chain,
)
from repro.tlspki.ctlog import CtLog, InclusionProof
from repro.tlspki.handshake import (
    TlsVersion,
    HandshakeConfig,
    HandshakeResult,
    simulate_handshake,
    TLS_RECORD_SIZE,
)

__all__ = [
    "Certificate",
    "CertificateError",
    "hostname_matches",
    "estimate_certificate_size",
    "CertificateAuthority",
    "IssuancePolicy",
    "TrustStore",
    "ValidationResult",
    "validate_chain",
    "CtLog",
    "InclusionProof",
    "TlsVersion",
    "HandshakeConfig",
    "HandshakeResult",
    "simulate_handshake",
    "TLS_RECORD_SIZE",
]
