"""Connection-coalescing policies (paper §2.3).

Given an existing connection's facts and a candidate hostname (with its
fresh DNS answer, when the policy wants one), a policy decides whether
the connection may be reused.  Every policy requires the connection's
certificate to cover the hostname -- without that, reuse would draw a
``421 Misdirected Request`` or an outright authentication failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Sequence

from repro.audit.reasons import ReasonCode
from repro.transport.base import SessionCapabilities


@dataclass
class ConnectionFacts:
    """What a policy may inspect about an open connection.

    Policies reason over the session's *capabilities* -- the
    protocol-agnostic record of what the negotiated session can do --
    never over concrete session classes, so a QUIC session and a
    TLS-over-TCP session with the same capabilities are
    interchangeable to every policy.
    """

    session: object  # see repro.browser.pool for what it provides
    sni: str
    connected_ip: str
    #: All addresses in the DNS answer that produced this connection.
    available_set: FrozenSet[str] = frozenset()
    anonymous_partition: bool = False
    #: Name of the dialer that opened the session (``tcp-tls`` or
    #: ``quic``).
    transport: str = "tcp-tls"

    def certificate_covers(self, hostname: str) -> bool:
        return self.session.certificate_covers(hostname)

    def origin_set_covers(self, hostname: str) -> bool:
        return self.session.origin_set_covers(hostname)

    @property
    def capabilities(self) -> SessionCapabilities:
        return self.session.capabilities

    @property
    def can_multiplex(self) -> bool:
        return self.capabilities.can_multiplex


class CoalescingPolicy:
    """Decides cross-hostname connection reuse.

    :meth:`explain` is the single source of truth: it returns the
    :class:`~repro.audit.reasons.ReasonCode` for one candidate
    connection, and reuse is granted exactly when that code
    ``is_hit`` -- so the audit log, the pool's trace events, and the
    actual reuse decision can never disagree.
    """

    name = "base"
    #: Whether a DNS answer must be obtained before attempting reuse.
    #: True for real browsers -- both Chromium and Firefox "begin with a
    #: DNS query for subresources, despite being defined as optional in
    #: the specification" (§2.3).
    requires_dns_before_reuse = True
    #: Whether :meth:`explain` can ever return a hit; pools skip the
    #: coalescing lookup entirely when False.
    coalesces = True
    #: Whether every reuse this policy grants implies an address overlap
    #: between the connection and the candidate's DNS answer.  When True
    #: the pool skips connections sharing no address with the answer.
    requires_ip_overlap = False

    def explain(
        self,
        facts: ConnectionFacts,
        hostname: str,
        dns_addresses: Sequence[str],
    ) -> ReasonCode:
        """Why this connection may (``is_hit``) or may not serve
        ``hostname``."""
        raise NotImplementedError


class NoCoalescingPolicy(CoalescingPolicy):
    """Never coalesce across hostnames (HTTP/1.1-era behaviour)."""

    name = "none"
    coalesces = False

    def explain(self, facts, hostname, dns_addresses):
        return ReasonCode.MISS_POLICY_FORBIDS


class ChromiumPolicy(CoalescingPolicy):
    """Chromium: IP match against the connected address only.

    "Chromium keeps only IP_A in its connected set and discards IP_B,
    causing the transitivity with IPs for the subresource to be lost"
    (§2.3).  Reuse requires the subresource's DNS answer to contain the
    exact address the connection was made to, and SAN coverage.
    """

    name = "chromium"
    requires_ip_overlap = True

    def explain(self, facts, hostname, dns_addresses):
        if not facts.can_multiplex:
            return ReasonCode.MISS_CANNOT_MULTIPLEX
        if not facts.certificate_covers(hostname):
            return ReasonCode.MISS_SAN_MISMATCH
        if facts.connected_ip in dns_addresses:
            return ReasonCode.POOL_HIT_IP_SAN
        return ReasonCode.MISS_NO_DNS_OVERLAP


class FirefoxPolicy(CoalescingPolicy):
    """Firefox: transitive IP matching plus (optionally) ORIGIN frames.

    "Firefox, alongside the connected-set, additionally caches the
    available-set of addresses returned in the DNS response" and reuses
    on any overlap (§2.3).  With ``origin_frames=True`` (Firefox >= 75
    with the pref enabled), a hostname in the server's advertised
    origin set is reusable regardless of IP overlap -- but Firefox
    still performs the blocking DNS query first (§6.8), so
    ``requires_dns_before_reuse`` stays True.
    """

    name = "firefox"

    def __init__(self, origin_frames: bool = True) -> None:
        self.origin_frames = origin_frames
        # Without ORIGIN frames every grant needs an address overlap, so
        # the pool need not examine connections that share none.
        self.requires_ip_overlap = not origin_frames
        if origin_frames:
            self.name = "firefox+origin"

    def explain(self, facts, hostname, dns_addresses):
        capabilities = facts.capabilities
        if not capabilities.can_multiplex:
            return ReasonCode.MISS_CANNOT_MULTIPLEX
        if not facts.certificate_covers(hostname):
            return ReasonCode.MISS_SAN_MISMATCH
        if (
            self.origin_frames
            and capabilities.supports_origin_frame
            and facts.origin_set_covers(hostname)
        ):
            return ReasonCode.POOL_HIT_ORIGIN_FRAME
        if facts.available_set.intersection(dns_addresses):
            return ReasonCode.POOL_HIT_IP_SAN
        return ReasonCode.MISS_NO_DNS_OVERLAP


class IdealOriginPolicy(FirefoxPolicy):
    """The §6.8 recommendation: respect the ORIGIN, skip the DNS.

    Certificate SAN plus origin-set membership is sufficient authority;
    no DNS query is made for such subresources, eliminating the
    render-blocking queries and their plaintext exposure.  Hostnames
    *not* in any origin set are resolved normally and may still reuse
    connections via Firefox-style available-set transitivity -- the
    ideal client is Firefox's ORIGIN rule without the DNS query first,
    never worse.
    """

    requires_dns_before_reuse = False

    def __init__(self) -> None:
        super().__init__(origin_frames=True)
        self.name = "ideal-origin"


#: Canonical name -> factory registry.  The CLI, the parallel crawl
#: workers, and the crawl cache all key on these names, so a policy
#: object never has to cross a process boundary.
POLICY_FACTORIES: Dict[str, Callable[[], CoalescingPolicy]] = {
    "chromium": ChromiumPolicy,
    "firefox": lambda: FirefoxPolicy(origin_frames=False),
    "firefox+origin": lambda: FirefoxPolicy(origin_frames=True),
    "ideal-origin": IdealOriginPolicy,
    "none": NoCoalescingPolicy,
}


def policy_by_name(name: str) -> CoalescingPolicy:
    """Instantiate a registered policy by its canonical name."""
    try:
        factory = POLICY_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r}; known: {sorted(POLICY_FACTORIES)}"
        ) from None
    return factory()
