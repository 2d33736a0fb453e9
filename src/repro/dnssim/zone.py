"""Authoritative zone data.

A :class:`Zone` holds the records below one origin (e.g.
``example.com``), including wildcard entries (``*.example.com``) which
providers commonly use for customer subdomains.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from repro.dnssim.records import RecordType, ResourceRecord, normalize_name


class ZoneError(Exception):
    """Invalid zone content or lookup."""


class Zone:
    """All records under a single DNS origin."""

    def __init__(self, origin: str) -> None:
        origin = normalize_name(origin)
        if not origin:
            raise ZoneError("zone origin cannot be empty")
        self.origin = origin
        self._records: Dict[Tuple[str, RecordType], List[ResourceRecord]] = (
            defaultdict(list)
        )

    def covers(self, name: str) -> bool:
        """True when ``name`` is the origin or ends with ``.origin``."""
        name = normalize_name(name)
        return name == self.origin or name.endswith("." + self.origin)

    def add(self, record: ResourceRecord) -> None:
        """Add a record; it must belong under this zone's origin.

        A name may have either a CNAME or other data, not both, per
        RFC 1034 §3.6.2.
        """
        if not self.covers(record.name):
            raise ZoneError(
                f"{record.name} does not belong to zone {self.origin}"
            )
        key = (record.name, record.rtype)
        if record.rtype is RecordType.CNAME:
            for (name, rtype), existing in self._records.items():
                if name == record.name and existing:
                    raise ZoneError(
                        f"{record.name} already has {rtype.value} data; "
                        "CNAME must be alone at a node"
                    )
        else:
            if self._records.get((record.name, RecordType.CNAME)):
                raise ZoneError(
                    f"{record.name} is a CNAME; cannot add {record.rtype.value}"
                )
        self._records[key].append(record)

    def add_a(self, name: str, addresses, ttl: float = 300_000.0) -> None:
        """Convenience: add one A record per address."""
        if isinstance(addresses, str):
            addresses = [addresses]
        for address in addresses:
            self.add(ResourceRecord(name, RecordType.A, address, ttl))

    def add_cname(self, name: str, target: str, ttl: float = 300_000.0) -> None:
        self.add(ResourceRecord(name, RecordType.CNAME, target, ttl))

    def add_https(self, name: str, alpn=("h3", "h2"),
                  ttl: float = 300_000.0) -> None:
        """Convenience: add an HTTPS/SVCB record advertising ``alpn``."""
        if isinstance(alpn, str):
            alpn = [alpn]
        self.add(ResourceRecord(
            name, RecordType.HTTPS, ",".join(alpn), ttl
        ))

    def remove(self, name: str, rtype: RecordType) -> int:
        """Drop all records at (name, rtype); returns how many were removed."""
        key = (normalize_name(name), rtype)
        removed = len(self._records.get(key, []))
        self._records.pop(key, None)
        return removed

    def lookup(self, name: str, rtype: RecordType) -> List[ResourceRecord]:
        """Exact-match lookup, falling back to a wildcard at the same depth.

        Wildcard matching follows the common single-label convention:
        ``*.example.com`` matches ``foo.example.com`` but not
        ``a.b.example.com`` (RFC 4592 differs; providers in this
        simulation only ever publish single-label wildcards).
        """
        name = normalize_name(name)
        exact = self._records.get((name, rtype))
        if exact:
            return list(exact)
        # CNAME at the node takes priority over a wildcard.
        if rtype is not RecordType.CNAME:
            cname = self._records.get((name, RecordType.CNAME))
            if cname:
                return list(cname)
        labels = name.split(".")
        if len(labels) > 2:
            wildcard = "*." + ".".join(labels[1:])
            wild = self._records.get((wildcard, rtype))
            if wild:
                return [
                    ResourceRecord(name, r.rtype, r.value, r.ttl) for r in wild
                ]
        return []

    def record_count(self) -> int:
        return sum(len(records) for records in self._records.values())

    def __repr__(self) -> str:
        return f"Zone({self.origin!r}, {self.record_count()} records)"
