"""Predicted DNS / TLS / certificate-validation counts (paper §4.2).

"In an ideal coalescing, the number of DNS queries, TLS handshakes,
and certificate validations is equal to the number of separate
services (not domains or hostnames) needed to serve all webpage
resources."  The crawl and the model both validate one certificate
chain per TLS handshake, so the records below carry DNS queries and
TLS connections; validations equal the latter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.grouping import ServiceGrouper, by_asn, by_ip
from repro.web.har import HarArchive, HarEntry


@dataclass(frozen=True)
class CoalescingCounts:
    """Per-page counts under some client model."""

    dns_queries: int
    tls_connections: int


def service_partition(
    archive: HarArchive, grouper: ServiceGrouper
) -> Tuple[Dict[str, List[HarEntry]], List[HarEntry]]:
    """Successful entries per service, plus the ones the grouper cannot
    place (no ASN/IP), in archive order."""
    services: Dict[str, List[HarEntry]] = {}
    unplaceable: List[HarEntry] = []
    for entry in archive.entries:
        if entry.status != 200:
            continue
        service = grouper(entry)
        if service is None:
            unplaceable.append(entry)
        else:
            services.setdefault(service, []).append(entry)
    return services, unplaceable


def _service_count(
    archive: HarArchive, grouper: ServiceGrouper
) -> int:
    """Distinct services among successful entries; entries the grouper
    cannot place each count as their own service."""
    services, unplaceable = service_partition(archive, grouper)
    return len(services) + len(unplaceable)


def ideal_origin_counts(archive: HarArchive) -> CoalescingCounts:
    """Best-case ORIGIN coalescing: one of everything per origin AS."""
    count = _service_count(archive, by_asn)
    return CoalescingCounts(
        dns_queries=count,
        tls_connections=count,
    )


def ideal_ip_counts(archive: HarArchive) -> CoalescingCounts:
    """IP-based 'missed opportunities': one of everything per server IP.

    This is the no-changes upper bound -- "no two hostnames are listed
    on a single certificate" is not required because connections are
    only merged when they already hit the same address.
    """
    count = _service_count(archive, by_ip)
    return CoalescingCounts(
        dns_queries=count,
        tls_connections=count,
    )


def origin_set_for_page(
    archive: HarArchive, grouper: ServiceGrouper = by_asn
) -> dict:
    """The ORIGIN sets the model says servers should advertise.

    Returns ``{service_key: [hostnames...]}`` -- "the set of names that
    should appear in an ORIGIN Frame for a website are those that could
    have been coalesced" (§4.1).
    """
    sets: dict = {}
    for entry in archive.entries:
        if entry.status != 200:
            continue
        service = grouper(entry)
        if service is None:
            continue
        hostnames = sets.setdefault(service, [])
        if entry.hostname not in hostnames:
            hostnames.append(entry.hostname)
    return {
        service: hostnames
        for service, hostnames in sets.items()
        if len(hostnames) > 1
    }
