"""Service groupers: what counts as "the same service"?

The model's core assumption (§4.1): "every server in each ASN can
authoritatively serve all content for that ASN", so the ASN is the
coalescing unit for the ORIGIN-frame best case.  IP-based coalescing
uses the exact server address instead; the deployment-only prediction
(Figure 9's dotted line) lets a *single* CDN's ASN coalesce while every
other request keeps its measured behaviour.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.web.har import HarEntry

#: Maps an entry to its service key; ``None`` = never coalescable.
ServiceGrouper = Callable[[HarEntry], Optional[str]]


def by_asn(entry: HarEntry) -> Optional[str]:
    """ORIGIN-frame best case: one service per origin AS."""
    if not entry.asn:
        return None
    return f"asn:{entry.asn}"


def by_ip(entry: HarEntry) -> Optional[str]:
    """IP-based coalescing: one service per server address.

    This is the §4.2 'missed opportunities' model -- no certificate or
    server changes assumed, so only connections that already land on
    the same address can merge.
    """
    if not entry.server_ip:
        return None
    return f"ip:{entry.server_ip}"


def by_single_asn(asn: int) -> ServiceGrouper:
    """Only ``asn`` coalesces; everything else keeps its measured
    behaviour (no new merging).

    Models deploying ORIGIN at one CDN (§6.1's CDN-only prediction).
    """

    def grouper(entry: HarEntry) -> Optional[str]:
        if entry.asn == asn:
            return f"asn:{asn}"
        return None

    return grouper
