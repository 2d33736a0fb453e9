"""The closed reason-code taxonomy for coalescing decisions.

Every coalescing-relevant decision in the simulator -- pool lookups,
the final per-request verdict, DNS resolution, TLS handshakes, HTTP/2
control frames, middlebox interference, and the §4 model's own
service accounting -- is labelled with exactly one :class:`ReasonCode`.
The enum is *closed*: exporters validate against it, ``audit-diff``
rejects unknown codes, and :data:`REASON_DESCRIPTIONS` must describe
every member (enforced by the tests), so a new decision path cannot
ship without joining the taxonomy.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Tuple


class ReasonCode(str, Enum):
    """Why a request was (or was not) served over an existing
    connection, query, or validation."""

    # -- pool hits: the request rode an existing connection ---------------
    POOL_HIT_SAME_HOST = "POOL_HIT_SAME_HOST"
    POOL_HIT_H1_IDLE = "POOL_HIT_H1_IDLE"
    POOL_HIT_H1_CAP = "POOL_HIT_H1_CAP"
    POOL_HIT_IP_SAN = "POOL_HIT_IP_SAN"
    POOL_HIT_ORIGIN_FRAME = "POOL_HIT_ORIGIN_FRAME"
    HIT_BROWSER_CACHE = "HIT_BROWSER_CACHE"

    # -- misses: why a new connection / query was spent -------------------
    MISS_FIRST_CONTACT = "MISS_FIRST_CONTACT"
    MISS_NO_CONNECTION = "MISS_NO_CONNECTION"
    MISS_CLOSED_STALE = "MISS_CLOSED_STALE"
    MISS_CANNOT_MULTIPLEX = "MISS_CANNOT_MULTIPLEX"
    MISS_ANONYMOUS_PARTITION = "MISS_ANONYMOUS_PARTITION"
    MISS_POLICY_FORBIDS = "MISS_POLICY_FORBIDS"
    MISS_NO_DNS_OVERLAP = "MISS_NO_DNS_OVERLAP"
    MISS_SAN_MISMATCH = "MISS_SAN_MISMATCH"
    MISS_NO_CANDIDATE = "MISS_NO_CANDIDATE"
    MISS_MISDIRECTED_421 = "MISS_MISDIRECTED_421"
    MISS_SPECULATIVE_RACE = "MISS_SPECULATIVE_RACE"
    MISS_CLEARTEXT_HTTP = "MISS_CLEARTEXT_HTTP"
    MISS_DNS_BEFORE_REUSE = "MISS_DNS_BEFORE_REUSE"
    MISS_DNS_NXDOMAIN = "MISS_DNS_NXDOMAIN"
    MISS_REQUEST_FAILED = "MISS_REQUEST_FAILED"
    MISS_RETRY_AFTER_GOAWAY = "MISS_RETRY_AFTER_GOAWAY"
    MISS_UNATTRIBUTED = "MISS_UNATTRIBUTED"

    # -- model baselines: costs the ideal client also pays ----------------
    MISS_DIFFERENT_AS = "MISS_DIFFERENT_AS"
    MISS_DIFFERENT_IP = "MISS_DIFFERENT_IP"
    MISS_UNPLACEABLE = "MISS_UNPLACEABLE"

    # -- model credits: ideal budget the measured client never spent ------
    CREDIT_CACHED = "CREDIT_CACHED"
    CREDIT_CLEARTEXT_SERVICE = "CREDIT_CLEARTEXT_SERVICE"
    CREDIT_COALESCED_ACROSS_SERVICES = "CREDIT_COALESCED_ACROSS_SERVICES"
    CREDIT_NO_WIRE_QUERY = "CREDIT_NO_WIRE_QUERY"

    # -- DNS-layer decisions ----------------------------------------------
    DNS_WIRE_QUERY = "DNS_WIRE_QUERY"
    DNS_CACHE_HIT = "DNS_CACHE_HIT"
    DNS_JOINED_IN_FLIGHT = "DNS_JOINED_IN_FLIGHT"
    DNS_NXDOMAIN = "DNS_NXDOMAIN"

    # -- TLS-layer decisions ----------------------------------------------
    TLS_FULL_HANDSHAKE = "TLS_FULL_HANDSHAKE"
    TLS_SESSION_RESUMED = "TLS_SESSION_RESUMED"
    TLS_HANDSHAKE_FAILED = "TLS_HANDSHAKE_FAILED"
    TLS_ALPN_FALLBACK = "TLS_ALPN_FALLBACK"

    # -- protocol discovery and QUIC (h3) decisions -----------------------
    ALT_SVC_UPGRADE = "ALT_SVC_UPGRADE"
    HTTPS_RR_H3 = "HTTPS_RR_H3"
    QUIC_HANDSHAKE_1RTT = "QUIC_HANDSHAKE_1RTT"
    ZERO_RTT_RESUMED = "ZERO_RTT_RESUMED"
    CROSS_HOST_TICKET = "CROSS_HOST_TICKET"

    # -- HTTP/2-layer decisions -------------------------------------------
    H2_ORIGIN_FRAME_RECEIVED = "H2_ORIGIN_FRAME_RECEIVED"
    H2_GOAWAY = "H2_GOAWAY"
    H2_MISDIRECTED_421 = "H2_MISDIRECTED_421"
    EDGE_OVERLOAD_GOAWAY = "EDGE_OVERLOAD_GOAWAY"

    # -- middlebox interference (§6.7) ------------------------------------
    MIDDLEBOX_TEARDOWN_UNKNOWN_FRAME = "MIDDLEBOX_TEARDOWN_UNKNOWN_FRAME"

    # -- chaos: injected faults and the unified retry path -----------------
    FAULT_INJECTED = "FAULT_INJECTED"
    CONN_LOST_COALESCED = "CONN_LOST_COALESCED"
    RETRY_BACKOFF = "RETRY_BACKOFF"
    RETRY_EXHAUSTED = "RETRY_EXHAUSTED"
    STALE_DNS_SERVED = "STALE_DNS_SERVED"

    @property
    def is_hit(self) -> bool:
        """The request reused an existing connection (or the cache)."""
        return self.value.startswith("POOL_HIT_") or \
            self is ReasonCode.HIT_BROWSER_CACHE


class UnknownReasonCode(ValueError):
    """A serialized event carried a code outside the closed enum."""


def reason_code(value: str) -> ReasonCode:
    """Parse a serialized code, raising :class:`UnknownReasonCode`."""
    try:
        return ReasonCode(value)
    except ValueError:
        raise UnknownReasonCode(
            f"unknown reason code {value!r}; the taxonomy is closed -- "
            "see repro.audit.reasons.ReasonCode"
        ) from None


#: One-line description per code, for docs, ``repro explain`` output,
#: and the taxonomy table.  The tests require full coverage.
REASON_DESCRIPTIONS: Dict[ReasonCode, str] = {
    ReasonCode.POOL_HIT_SAME_HOST:
        "multiplexed connection with this exact SNI was reused",
    ReasonCode.POOL_HIT_H1_IDLE:
        "idle HTTP/1.1 connection for this host was reused",
    ReasonCode.POOL_HIT_H1_CAP:
        "per-host HTTP/1.1 connection limit reached; request queued "
        "on an existing connection",
    ReasonCode.POOL_HIT_IP_SAN:
        "coalesced: certificate covers the host and the addresses "
        "overlap (§2.3 IP matching)",
    ReasonCode.POOL_HIT_ORIGIN_FRAME:
        "coalesced: host is in the connection's advertised ORIGIN set "
        "(RFC 8336)",
    ReasonCode.HIT_BROWSER_CACHE:
        "served from the browser resource cache; no network use",
    ReasonCode.MISS_FIRST_CONTACT:
        "root document: nothing could exist to reuse",
    ReasonCode.MISS_NO_CONNECTION:
        "no usable connection for this SNI and none coalescable",
    ReasonCode.MISS_CLOSED_STALE:
        "connections for this SNI existed but were closed or failed",
    ReasonCode.MISS_CANNOT_MULTIPLEX:
        "only busy HTTP/1.1 connections were available (no multiplex)",
    ReasonCode.MISS_ANONYMOUS_PARTITION:
        "credential-less fetch partition never coalesces (§5.3)",
    ReasonCode.MISS_POLICY_FORBIDS:
        "the active policy never coalesces across hostnames",
    ReasonCode.MISS_NO_DNS_OVERLAP:
        "a certificate-covering connection existed but its addresses "
        "did not overlap the DNS answer (§2.3 transitivity loss)",
    ReasonCode.MISS_SAN_MISMATCH:
        "an address-sharing connection existed but its certificate "
        "does not cover the host",
    ReasonCode.MISS_NO_CANDIDATE:
        "no other usable connection was available to consider",
    ReasonCode.MISS_MISDIRECTED_421:
        "server answered 421 Misdirected Request; retried on a "
        "dedicated connection",
    ReasonCode.MISS_SPECULATIVE_RACE:
        "speculative/happy-eyeballs duplicate connection (§4.2)",
    ReasonCode.MISS_CLEARTEXT_HTTP:
        "cleartext http:// resource; HTTPS coalescing cannot apply",
    ReasonCode.MISS_DNS_BEFORE_REUSE:
        "connection was reused, but the browser still spent the "
        "blocking DNS query first (§6.8)",
    ReasonCode.MISS_DNS_NXDOMAIN:
        "DNS resolution failed (NXDOMAIN)",
    ReasonCode.MISS_REQUEST_FAILED:
        "request failed; the model does not budget failed requests",
    ReasonCode.MISS_RETRY_AFTER_GOAWAY:
        "connection refused with an overload GOAWAY; the request was "
        "re-dialed on a fresh connection after backoff",
    ReasonCode.MISS_UNATTRIBUTED:
        "no decision event was recorded for this request (bug guard)",
    ReasonCode.MISS_DIFFERENT_AS:
        "first contact with this origin AS; even the ideal ORIGIN "
        "client opens a connection per service",
    ReasonCode.MISS_DIFFERENT_IP:
        "first contact with this server IP; even ideal IP coalescing "
        "opens a connection per address",
    ReasonCode.MISS_UNPLACEABLE:
        "entry has no AS/IP mapping; counted as its own service",
    ReasonCode.CREDIT_CACHED:
        "service was served entirely from the browser cache; the "
        "ideal model still budgets it",
    ReasonCode.CREDIT_CLEARTEXT_SERVICE:
        "service was only reached over cleartext HTTP; no TLS budget "
        "was spent",
    ReasonCode.CREDIT_COALESCED_ACROSS_SERVICES:
        "service rode connections the model attributes to another "
        "service",
    ReasonCode.CREDIT_NO_WIRE_QUERY:
        "service never needed a wire DNS query (DNS-free ORIGIN reuse "
        "or fully cached answers)",
    ReasonCode.DNS_WIRE_QUERY:
        "query went to the wire (cache miss)",
    ReasonCode.DNS_CACHE_HIT:
        "answered from the resolver TTL cache",
    ReasonCode.DNS_JOINED_IN_FLIGHT:
        "joined an outstanding query for the same name",
    ReasonCode.DNS_NXDOMAIN:
        "authoritative answer: the name does not exist",
    ReasonCode.TLS_FULL_HANDSHAKE:
        "full TLS handshake with certificate validation",
    ReasonCode.TLS_SESSION_RESUMED:
        "TLS 1.3 session resumption; certificate flight skipped",
    ReasonCode.TLS_HANDSHAKE_FAILED:
        "handshake failed (validation error or peer alert)",
    ReasonCode.TLS_ALPN_FALLBACK:
        "handshake produced no ALPN result; h2 was assumed by prior "
        "knowledge rather than negotiated",
    ReasonCode.ALT_SVC_UPGRADE:
        "new h3 connection opened because the server advertised "
        "Alt-Svc; same-host h2 reuse deliberately skipped",
    ReasonCode.HTTPS_RR_H3:
        "DNS HTTPS/SVCB record advertised h3; first contact went "
        "straight to QUIC",
    ReasonCode.QUIC_HANDSHAKE_1RTT:
        "full QUIC handshake: combined transport+TLS in one round "
        "trip",
    ReasonCode.ZERO_RTT_RESUMED:
        "QUIC 0-RTT resumption; the request rode the first flight",
    ReasonCode.CROSS_HOST_TICKET:
        "QUIC session ticket issued for another hostname was accepted "
        "because the certificate covers this one (Sy et al.)",
    ReasonCode.H2_ORIGIN_FRAME_RECEIVED:
        "server advertised an ORIGIN frame for this connection",
    ReasonCode.H2_GOAWAY:
        "server sent GOAWAY; connection unusable for new requests",
    ReasonCode.H2_MISDIRECTED_421:
        "stream answered 421 Misdirected Request",
    ReasonCode.EDGE_OVERLOAD_GOAWAY:
        "edge at its concurrent-connection limit refused the "
        "connection with GOAWAY ENHANCE_YOUR_CALM after the handshake",
    ReasonCode.MIDDLEBOX_TEARDOWN_UNKNOWN_FRAME:
        "non-compliant middlebox tore the connection down on an "
        "unknown frame type (§6.7)",
    ReasonCode.FAULT_INJECTED:
        "a scheduled fault from the chaos FaultSchedule fired",
    ReasonCode.CONN_LOST_COALESCED:
        "an injected fault killed a connection that was carrying "
        "more than one hostname (coalescing blast radius)",
    ReasonCode.RETRY_BACKOFF:
        "request lost its connection to an injected fault and was "
        "re-dialed after deterministic jittered backoff",
    ReasonCode.RETRY_EXHAUSTED:
        "request kept losing connections until the retry budget ran "
        "out; surfaced as a failed request",
    ReasonCode.STALE_DNS_SERVED:
        "resolver served an expired cache entry because the "
        "authoritative path was faulted (stale-answer fallback)",
}


def taxonomy_table() -> List[Tuple[str, str]]:
    """``(code, description)`` rows in enum declaration order."""
    return [(code.value, REASON_DESCRIPTIONS[code])
            for code in ReasonCode]
