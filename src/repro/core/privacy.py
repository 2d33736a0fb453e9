"""Privacy exposure analysis (paper §6.2).

The paper's final position is that ORIGIN frames' primary benefit is
*privacy*: "each coalesced connection hides an otherwise exposed
plaintext SNI, and at least one DNS query if transmitted over UDP or
TCP on port 53".  This module counts exactly those signals -- the
hostnames an on-path observer learns from a page load -- under the
measured client, the ideal ORIGIN client, and optional ECH/encrypted-
DNS deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

import numpy as np

from repro.core.grouping import by_asn
from repro.core.timeline import reconstruct
from repro.web.har import HarArchive


@dataclass
class PrivacyExposure:
    """On-path observable signals from one page load."""

    #: Hostnames leaked through plaintext DNS queries.
    dns_leaked: Set[str] = field(default_factory=set)
    #: Hostnames leaked through plaintext SNI in ClientHellos.
    sni_leaked: Set[str] = field(default_factory=set)
    #: Raw counts (a hostname can leak several times).
    plaintext_dns_queries: int = 0
    plaintext_sni_handshakes: int = 0

    @property
    def leaked_hostnames(self) -> Set[str]:
        return self.dns_leaked | self.sni_leaked

    @property
    def total_signals(self) -> int:
        return self.plaintext_dns_queries + self.plaintext_sni_handshakes


def exposure_from_archive(
    archive: HarArchive,
    encrypted_dns: bool = False,
    ech: bool = False,
) -> PrivacyExposure:
    """What an on-path observer saw during this page load.

    ``encrypted_dns`` models DoH/DoT (queries leave the path);
    ``ech`` models Encrypted Client Hello (SNI leaves the path).
    """
    exposure = PrivacyExposure()
    for entry in archive.entries:
        if entry.timings.used_dns and not encrypted_dns:
            exposure.plaintext_dns_queries += 1
            exposure.dns_leaked.add(entry.hostname)
        if entry.new_tls_connection and not ech:
            exposure.plaintext_sni_handshakes += 1
            exposure.sni_leaked.add(entry.hostname)
        if not entry.secure:
            # Cleartext HTTP leaks the hostname outright.
            exposure.sni_leaked.add(entry.hostname)
    return exposure


@dataclass
class PrivacyComparison:
    """Per-page exposure under each client model, folded one archive
    at a time (:meth:`add`).

    The ideal client's exposure comes from the §4.1 reconstruction
    under ORIGIN coalescing: coalesced requests make no DNS query and
    no new TLS handshake, so their hostnames never cross the wire in
    cleartext.
    """

    measured: List[PrivacyExposure] = field(default_factory=list)
    ideal_origin: List[PrivacyExposure] = field(default_factory=list)

    def add(self, archive: HarArchive) -> None:
        """Fold one page: a successful one's exposure today and under
        the ideal client; a failed one exposes nothing to compare."""
        if not archive.page.success:
            return
        self.measured.append(exposure_from_archive(archive))
        rebuilt = reconstruct(archive, by_asn).reconstructed
        self.ideal_origin.append(exposure_from_archive(rebuilt))

    def median_signals(self) -> Dict[str, float]:
        return {
            "measured": float(np.median(
                [e.total_signals for e in self.measured]
            )) if self.measured else 0.0,
            "ideal_origin": float(np.median(
                [e.total_signals for e in self.ideal_origin]
            )) if self.ideal_origin else 0.0,
        }

    def median_hostnames_hidden(self) -> float:
        """Median count of hostnames the ideal client hides entirely."""
        hidden = [
            len(m.leaked_hostnames) - len(i.leaked_hostnames)
            for m, i in zip(self.measured, self.ideal_origin)
        ]
        return float(np.median(hidden)) if hidden else 0.0

    def signal_reduction(self) -> float:
        medians = self.median_signals()
        if medians["measured"] == 0:
            return 0.0
        return 1.0 - medians["ideal_origin"] / medians["measured"]


def compare_privacy(archives: Sequence[HarArchive]) -> PrivacyComparison:
    """Exposure today vs under ideal ORIGIN coalescing, folded over
    ``archives`` (:meth:`PrivacyComparison.add`)."""
    comparison = PrivacyComparison()
    for archive in archives:
        comparison.add(archive)
    return comparison
