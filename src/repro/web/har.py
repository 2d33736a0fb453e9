"""HAR-style timelines (HTTP Archive format, trimmed to what we use).

The crawler writes one :class:`HarArchive` per page load; the
coalescing model in :mod:`repro.core` consumes these, exactly as the
paper's pipeline consumed WebPageTest HAR files (§3.1, §4.1).

Timing semantics follow the HAR 1.2 spec: per entry, ``blocked`` (queue
/ CPU before the network), ``dns``, ``connect`` (TCP), ``ssl`` (TLS,
not included in ``connect`` here), ``send``, ``wait`` (server think),
``receive`` (body download).  ``-1`` means "did not happen" (e.g. no
DNS because the connection was reused).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from operator import attrgetter, itemgetter
from typing import Dict, List, Optional

NOT_APPLICABLE = -1.0


def elapsed(*phases: float) -> float:
    """Sum of the phases that happened (negative ones skipped), added
    left to right.  Built-in ``sum`` compensates float rounding from
    Python 3.12 on, so it would move HAR timings in the last bit from
    one interpreter to the next."""
    total = 0.0
    for phase in phases:
        total += max(phase, 0.0)
    return total


@dataclass(slots=True)
class HarTimings:
    """Per-request phase durations in milliseconds."""

    blocked: float = 0.0
    dns: float = NOT_APPLICABLE
    connect: float = NOT_APPLICABLE
    ssl: float = NOT_APPLICABLE
    send: float = 0.0
    wait: float = 0.0
    receive: float = 0.0

    def total(self) -> float:
        """Wall-clock duration of the entry (negative phases skipped)."""
        return elapsed(
            self.blocked, self.dns, self.connect, self.ssl,
            self.send, self.wait, self.receive,
        )

    @property
    def used_new_connection(self) -> bool:
        return self.connect >= 0.0

    @property
    def used_dns(self) -> bool:
        return self.dns >= 0.0


@dataclass(slots=True)
class HarEntry:
    """One request in a page-load timeline."""

    url: str
    hostname: str
    path: str
    started_at: float
    timings: HarTimings
    status: int = 200
    server_ip: str = ""
    protocol: str = "h2"
    content_type: str = ""
    transfer_size: int = 0
    #: IPs in the DNS answer used for this request (empty on reuse).
    dns_addresses: List[str] = field(default_factory=list)
    #: Leaf certificate SAN entries when a new TLS session validated.
    certificate_san: List[str] = field(default_factory=list)
    certificate_issuer: str = ""
    #: Origin AS of the server IP at the time of the request.
    asn: int = 0
    as_org: str = ""
    secure: bool = True
    fetch_mode: str = "normal"
    coalesced: bool = False
    #: Path of the resource whose parsing discovered this one ("" for
    #: the root document) -- the initiator chain browsers record.
    initiator_path: str = ""

    @property
    def finished_at(self) -> float:
        return self.started_at + self.timings.total()

    @property
    def new_tls_connection(self) -> bool:
        return self.timings.ssl >= 0.0


@dataclass(slots=True)
class HarPage:
    """Page-level summary."""

    url: str
    hostname: str
    rank: int = 0
    on_content_load: float = 0.0
    on_load: float = 0.0
    success: bool = True
    failure_reason: str = ""
    #: Connections (with TLS handshakes) opened beyond those attributed
    #: to entries: speculative/racing connections (paper §4.2 explains
    #: why measured TLS counts exceed DNS counts).
    extra_tls_connections: int = 0


@dataclass
class HarArchive:
    """One page load: the page record and its entries."""

    page: HarPage
    entries: List[HarEntry] = field(default_factory=list)

    @property
    def page_load_time(self) -> float:
        return self.page.on_load

    def dns_query_count(self) -> int:
        return sum(1 for entry in self.entries if entry.timings.used_dns)

    def tls_connection_count(self) -> int:
        return (
            sum(1 for entry in self.entries if entry.new_tls_connection)
            + self.page.extra_tls_connections
        )

    def new_connection_count(self) -> int:
        return (
            sum(1 for entry in self.entries
                if entry.timings.used_new_connection)
            + self.page.extra_tls_connections
        )

    def entries_by_start(self) -> List[HarEntry]:
        return sorted(self.entries, key=lambda entry: entry.started_at)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> Dict:
        """Plain dicts, keys in field order -- what
        ``dataclasses.asdict`` builds, without its per-value recursion
        and deep copies (``to_json`` of a crawl is this, many times)."""
        return {
            "page": _page_dict(self.page),
            "entries": [_entry_dict(entry) for entry in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, doc: Dict, memo: Optional[Dict] = None
                  ) -> "HarArchive":
        """The archive ``to_dict`` built.  Every ``str`` a page shares
        with other pages -- names, IPs, the SAN and DNS lists' items;
        not the per-entry ``url`` -- goes through ``memo``, so equal
        strings decoded with one memo are one object.  Only strings go
        in: one dict would conflate ``1``, ``1.0`` and ``True``."""
        share = ({} if memo is None else memo).setdefault
        return cls(_page_from(doc["page"], share),
                   [_entry_from(raw, share) for raw in doc["entries"]])

    @classmethod
    def from_json(cls, text: str, memo: Optional[Dict] = None
                  ) -> "HarArchive":
        """Decode one HAR JSON line.  A caller decoding many lines
        passes one ``memo`` dict for all of them (one per file, one per
        shard merge) and drops it with the pass: its archives then hold
        each distinct hostname, path or IP once.  Without one, the
        strings are shared within this archive only."""
        return cls.from_dict(json.loads(text), memo)


def _fields_reader(cls):
    """``record -> dict`` of a slotted record's fields in declaration
    order, read in one C call (the records have no ``__dict__`` to
    copy)."""
    names = tuple(f.name for f in fields(cls))
    values = attrgetter(*names)
    return lambda record: dict(zip(names, values(record)))


_page_dict = _fields_reader(HarPage)
_timings_dict = _fields_reader(HarTimings)
_entry_fields = _fields_reader(HarEntry)


def _entry_dict(entry: HarEntry) -> Dict:
    doc = _entry_fields(entry)
    doc["timings"] = _timings_dict(entry.timings)
    doc["dns_addresses"] = list(entry.dns_addresses)
    doc["certificate_san"] = list(entry.certificate_san)
    return doc


_PAGE_KEYS = frozenset(f.name for f in fields(HarPage))
_TIMINGS_KEYS = frozenset(f.name for f in fields(HarTimings))
_ENTRY_KEYS = frozenset(f.name for f in fields(HarEntry))
#: A decoded record's values in field order, read in one C call.
_timings_values = itemgetter(*(f.name for f in fields(HarTimings)))
_entry_values = itemgetter(*(f.name for f in fields(HarEntry)))


def _page_from(raw: Dict, share) -> HarPage:
    if raw.keys() != _PAGE_KEYS:
        # A missing defaulted field or an unknown key: the
        # constructor's keyword rules fill the one and refuse the other.
        raw = _page_dict(HarPage(**raw))
    hostname = raw["hostname"]
    reason = raw["failure_reason"]
    return HarPage(
        raw["url"], share(hostname, hostname), raw["rank"],
        raw["on_content_load"], raw["on_load"], raw["success"],
        share(reason, reason), raw["extra_tls_connections"],
    )


def _timings_from(raw: Dict) -> HarTimings:
    if raw.keys() != _TIMINGS_KEYS:
        raw = _timings_dict(HarTimings(**raw))
    return HarTimings(*_timings_values(raw))


def _entry_from(raw: Dict, share) -> HarEntry:
    """One entry built positionally, its fields read by name (the key
    set is checked first, so the order of a line's keys is free)."""
    if raw.keys() != _ENTRY_KEYS:
        raw = _entry_fields(HarEntry(**raw))
    (url, hostname, path, started_at, timings, status, server_ip,
     protocol, content_type, transfer_size, dns_addresses,
     certificate_san, issuer, asn, as_org, secure, fetch_mode,
     coalesced, initiator_path) = _entry_values(raw)
    return HarEntry(
        url, share(hostname, hostname), share(path, path), started_at,
        _timings_from(timings), status, share(server_ip, server_ip),
        share(protocol, protocol), share(content_type, content_type),
        transfer_size, [share(ip, ip) for ip in dns_addresses],
        [share(name, name) for name in certificate_san],
        share(issuer, issuer), asn, share(as_org, as_org), secure,
        share(fetch_mode, fetch_mode), coalesced,
        share(initiator_path, initiator_path),
    )
