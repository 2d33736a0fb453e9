"""IP-to-ASN mapping.

The paper resolves every request destination to its origin autonomous
system using "an internal database at Cloudflare" (§4.1); this module
is the simulation's equivalent, with /8../32 longest-prefix matching
over registered blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.netsim.addresses import ipv4_to_int


@dataclass(frozen=True)
class AsInfo:
    """One autonomous system."""

    asn: int
    org: str

    def __str__(self) -> str:
        return f"AS {self.asn} ({self.org})"


class AsDatabase:
    """Longest-prefix IP → AS lookups over registered CIDR blocks."""

    #: Prefix lengths supported, longest first for LPM.
    PREFIX_LENGTHS = (32, 24, 16, 8)

    def __init__(self) -> None:
        self._tables: Dict[int, Dict[int, AsInfo]] = {
            length: {} for length in self.PREFIX_LENGTHS
        }
        self._by_asn: Dict[int, AsInfo] = {}

    @staticmethod
    def _prefix_key(address_int: int, length: int) -> int:
        return address_int >> (32 - length)

    def register(self, cidr: str, asn: int, org: str) -> AsInfo:
        """Register a block, e.g. ``register("10.0.0.0/24", 13335,
        "Cloudflare")``."""
        if "/" not in cidr:
            raise ValueError(f"{cidr!r} is not CIDR notation")
        base, length_text = cidr.split("/", 1)
        length = int(length_text)
        if length not in self._tables:
            raise ValueError(
                f"unsupported prefix length /{length}; "
                f"use one of {self.PREFIX_LENGTHS}"
            )
        info = self._by_asn.get(asn)
        if info is None:
            info = AsInfo(asn=asn, org=org)
            self._by_asn[asn] = info
        elif info.org != org:
            raise ValueError(
                f"AS {asn} already registered as {info.org!r}, not {org!r}"
            )
        key = self._prefix_key(ipv4_to_int(base), length)
        self._tables[length][key] = info
        return info

    def lookup(self, address: str) -> Optional[AsInfo]:
        """Longest-prefix match; ``None`` for unregistered space."""
        address_int = ipv4_to_int(address)
        for length in self.PREFIX_LENGTHS:
            info = self._tables[length].get(
                self._prefix_key(address_int, length)
            )
            if info is not None:
                return info
        return None

    def asn_of(self, address: str) -> Optional[int]:
        info = self.lookup(address)
        return info.asn if info is not None else None

    def __len__(self) -> int:
        return len(self._by_asn)
