"""Chain validation.

Validates a presented chain the way a browser would: hostname against
the leaf SAN, validity windows, issuer linkage, signatures back to a
trusted root.  The result carries a count of signature verifications so
that the analysis can price the "cryptographic computation overhead"
the paper's Figure 3 discussion attributes to excess validations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.dnssim.records import normalize_name
from repro.tlspki.ca import CertificateAuthority
from repro.tlspki.certificate import Certificate


class TrustStore:
    """The set of root CAs a client trusts."""

    def __init__(self, roots: Sequence[CertificateAuthority] = ()) -> None:
        self._roots: Dict[str, CertificateAuthority] = {}
        for root in roots:
            self.add_root(root)

    def add_root(self, root: CertificateAuthority) -> None:
        if root.parent is not None:
            raise ValueError(
                f"{root.name} is an intermediate, not a trust anchor"
            )
        self._roots[normalize_name(root.name)] = root

    def __contains__(self, name: str) -> bool:
        return normalize_name(name) in self._roots

    def __len__(self) -> int:
        return len(self._roots)


@dataclass
class ValidationResult:
    """Outcome of one chain validation."""

    ok: bool
    hostname: str
    errors: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def validate_chain(
    chain: Sequence[Certificate],
    hostname: str,
    now: float,
    trust_store: TrustStore,
    authorities: Sequence[CertificateAuthority],
) -> ValidationResult:
    """Validate ``chain`` for ``hostname`` at simulated time ``now``.

    ``authorities`` is the universe of CAs whose signatures can be
    recomputed (the simulation's stand-in for public-key operations).
    All problems found are reported, not just the first.
    """
    result = ValidationResult(ok=True, hostname=hostname)
    if not chain:
        result.ok = False
        result.errors.append("empty chain")
        return result

    by_name: Dict[str, CertificateAuthority] = {
        normalize_name(authority.name): authority
        for authority in authorities
    }
    leaf = chain[0]

    if not leaf.covers(hostname):
        result.ok = False
        result.errors.append(
            f"hostname {hostname!r} not covered by leaf SAN {list(leaf.san)}"
        )
    if leaf.is_ca:
        result.ok = False
        result.errors.append("leaf has the CA flag set")

    for depth, certificate in enumerate(chain):
        if not certificate.valid_at(now):
            result.ok = False
            result.errors.append(
                f"certificate {certificate.subject!r} at depth {depth} "
                f"expired or not yet valid at t={now}"
            )
        if depth > 0 and not certificate.is_ca:
            result.ok = False
            result.errors.append(
                f"non-CA certificate {certificate.subject!r} at depth {depth}"
            )
        issuer = by_name.get(certificate.issuer)
        if issuer is None:
            result.ok = False
            result.errors.append(
                f"unknown issuer {certificate.issuer!r} at depth {depth}"
            )
            continue
        if not issuer.verify(certificate):
            result.ok = False
            result.errors.append(
                f"bad signature on {certificate.subject!r} at depth {depth}"
            )
        # Issuer linkage between consecutive chain elements.
        if depth + 1 < len(chain):
            if certificate.issuer != chain[depth + 1].subject:
                result.ok = False
                result.errors.append(
                    f"chain break: {certificate.subject!r} issued by "
                    f"{certificate.issuer!r}, next element is "
                    f"{chain[depth + 1].subject!r}"
                )

    root = chain[-1]
    if root.issuer != root.subject:
        result.ok = False
        result.errors.append(
            f"chain does not end in a self-signed root "
            f"(got {root.subject!r} issued by {root.issuer!r})"
        )
    if root.subject not in trust_store:
        result.ok = False
        result.errors.append(f"root {root.subject!r} not in trust store")

    return result
