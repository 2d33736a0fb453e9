"""DNS record and answer types."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple


class RecordType(enum.Enum):
    """The record types the simulation needs."""

    A = "A"
    AAAA = "AAAA"
    CNAME = "CNAME"
    NS = "NS"
    #: HTTPS/SVCB (RFC 9460); the value is the comma-joined ALPN list
    #: the service endpoint advertises (e.g. ``"h3,h2"``).
    HTTPS = "HTTPS"


def normalize_name(name: str) -> str:
    """Lower-case and strip the trailing dot from a DNS name."""
    name = name.strip().lower()
    if name.endswith("."):
        name = name[:-1]
    return name


@dataclass(frozen=True)
class ResourceRecord:
    """A single DNS resource record."""

    name: str
    rtype: RecordType
    value: str
    ttl: float = 300_000.0  # ms; 300s is a common production TTL

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("record name cannot be empty")
        if self.ttl <= 0:
            raise ValueError(f"TTL must be positive, got {self.ttl}")
        object.__setattr__(self, "name", normalize_name(self.name))
        if self.rtype is RecordType.CNAME:
            object.__setattr__(self, "value", normalize_name(self.value))


@dataclass
class DnsAnswer:
    """The resolver's reply for one query.

    ``addresses`` is the ordered list handed to the client; ordering
    matters because browsers connect to the first address and keep (or
    discard) the rest depending on their coalescing policy.
    ``cname_chain`` records any aliases followed on the way.
    """

    name: str
    addresses: List[str]
    ttl: float
    cname_chain: Tuple[str, ...] = ()
    from_cache: bool = False
    query_time_ms: float = 0.0
    #: ALPN protocols from the name's HTTPS/SVCB record; empty when
    #: none exists or the resolver did not ask for one.
    https_alpn: Tuple[str, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.addresses


@dataclass
class CacheEntry:
    """A cached answer with its absolute expiry time."""

    answer: DnsAnswer
    expires_at: float
