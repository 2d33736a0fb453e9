"""Authoritative server and caching stub resolver.

The :class:`AuthoritativeServer` aggregates zones and answers queries
synchronously (zone data is in-process).  The :class:`CachingResolver`
is what browsers use: it adds query latency on the simulated event
loop, a TTL cache keyed on the simulated clock, CNAME chasing, and
per-query accounting used by the privacy analysis.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.dnssim.loadbalance import AnswerPolicy, FixedOrderPolicy
from repro.dnssim.records import (
    CacheEntry,
    DnsAnswer,
    RecordType,
    normalize_name,
)
from repro.dnssim.zone import Zone
from repro.audit.reasons import ReasonCode
from repro.netsim.events import EventLoop
from repro.telemetry import NULL_TELEMETRY, RegistryStats, Telemetry


class NxDomain(Exception):
    """The queried name does not exist in any known zone."""


#: Maximum CNAME chain length before the resolver gives up.
MAX_CNAME_DEPTH = 8

#: Default median DNS query latency in ms; matches typical recursive
#: resolver performance for cache-miss lookups from a home network.
DEFAULT_QUERY_LATENCY_MS = 20.0

#: Log-space sigma of the query latency around its median.
QUERY_LATENCY_SIGMA = 0.4


def _served_from_cache(answer: DnsAnswer, ttl: float) -> DnsAnswer:
    """A copy of ``answer`` as the cache (or a joined in-flight lookup)
    serves it: marked ``from_cache``, with no wire time of its own."""
    return DnsAnswer(
        name=answer.name,
        addresses=list(answer.addresses),
        ttl=ttl,
        cname_chain=answer.cname_chain,
        from_cache=True,
        query_time_ms=0.0,
        https_alpn=answer.https_alpn,
    )


class ResolverStats(RegistryStats):
    """Counters consumed by the privacy analysis (paper §6.2)."""

    _prefix = "dns."
    _counters = (
        "queries",
        "cache_hits",
        "nxdomain",
        "plaintext_queries",
    )


class AuthoritativeServer:
    """All authoritative zone data reachable by the resolver."""

    def __init__(self, answer_policy: Optional[AnswerPolicy] = None) -> None:
        self._zones: List[Zone] = []
        self._by_origin: Dict[str, Zone] = {}
        #: How answers are ordered; the DNS ablation swaps it per run.
        self.answer_policy = answer_policy or FixedOrderPolicy()

    def add_zone(self, zone: Zone) -> Zone:
        if zone.origin in self._by_origin:
            raise ValueError(f"zone {zone.origin!r} already registered")
        self._zones.append(zone)
        self._by_origin[zone.origin] = zone
        return zone

    def zone_for(self, name: str) -> Optional[Zone]:
        """Longest-suffix matching zone for ``name``.

        Indexed by origin, walking the name's suffixes from most to
        least specific (O(labels), not O(zones)).
        """
        name = normalize_name(name)
        suffix = name
        while suffix:
            zone = self._by_origin.get(suffix)
            if zone is not None:
                return zone
            if "." not in suffix:
                return None
            suffix = suffix.split(".", 1)[1]
        return None

    def query(self, name: str) -> Tuple[List[str], float, Tuple[str, ...]]:
        """Resolve ``name`` to (addresses, min_ttl, cname_chain).

        Follows CNAME chains across zones; raises :class:`NxDomain` when
        no zone has data for the name.
        """
        chain: List[str] = []
        current = normalize_name(name)
        for _ in range(MAX_CNAME_DEPTH):
            zone = self.zone_for(current)
            if zone is None:
                raise NxDomain(current)
            records = zone.lookup(current, RecordType.A)
            if not records:
                raise NxDomain(current)
            if records[0].rtype is RecordType.CNAME:
                chain.append(records[0].value)
                current = records[0].value
                continue
            addresses = self.answer_policy.order(
                current, [r.value for r in records]
            )
            min_ttl = min(r.ttl for r in records)
            return addresses, min_ttl, tuple(chain)
        raise NxDomain(f"CNAME chain too long resolving {name}")

    def query_https(self, name: str) -> Tuple[str, ...]:
        """ALPN list from the name's HTTPS/SVCB record, following
        CNAMEs like :meth:`query`; empty when no record exists."""
        current = normalize_name(name)
        for _ in range(MAX_CNAME_DEPTH):
            zone = self.zone_for(current)
            if zone is None:
                return ()
            records = zone.lookup(current, RecordType.HTTPS)
            if not records:
                return ()
            if records[0].rtype is RecordType.CNAME:
                current = records[0].value
                continue
            return tuple(
                p for p in records[0].value.split(",") if p
            )
        return ()


class CachingResolver:
    """A stub resolver with TTL cache over the simulated event loop."""

    def __init__(
        self,
        loop: EventLoop,
        authority: AuthoritativeServer,
        rng: Optional[np.random.Generator] = None,
        median_latency_ms: float = DEFAULT_QUERY_LATENCY_MS,
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> None:
        self._loop = loop
        self._authority = authority
        self._rng = rng
        self._median_latency = median_latency_ms
        #: When True, wire queries also fetch the name's HTTPS/SVCB
        #: record (piggybacked: resolvers issue A and HTTPS queries in
        #: parallel, so no extra latency is modelled).  Off by default
        #: so pre-h3 crawls resolve exactly as before.
        self.query_https_records = False
        self._cache: Dict[str, CacheEntry] = {}
        #: In-flight queries: name -> callbacks awaiting the answer.
        #: Browsers coalesce concurrent lookups for the same name, so a
        #: second request while one is outstanding joins it rather than
        #: issuing another wire query.
        self._in_flight: Dict[str, List[Callable[[DnsAnswer], None]]] = {}
        self.stats = ResolverStats()
        #: ``telemetry`` traces query/cache-hit spans, audits how each
        #: query was answered, and observes every wire query's latency
        #: into ``phase.dns`` (cache hits and joined lookups cost no
        #: wire wait).
        self.tracer = telemetry.tracer
        self.audit = telemetry.audit
        self.phases = telemetry.phases

    # -- latency -----------------------------------------------------------

    def _draw_latency(self) -> float:
        """Lognormal latency around the configured median.

        A lognormal with sigma 0.4 around a 20ms median gives the
        long-tailed profile measured for real recursive resolution.
        """
        if self._rng is None:
            return self._median_latency
        return float(
            self._median_latency
            * np.exp(self._rng.normal(0.0, QUERY_LATENCY_SIGMA))
        )

    # -- cache -------------------------------------------------------------

    def flush_cache(self) -> None:
        """Drop every cached answer (new browser session semantics)."""
        self._cache.clear()

    def stale_answer(self, name: str) -> Optional[DnsAnswer]:
        """A copy of an *expired* cached answer, if one is still around.

        Supports the chaos ``dns_stale`` fault: a resolver serving a
        stale record past its TTL (misbehaving caches do this in the
        wild, and coalescing decisions made on stale addresses are
        exactly the hazard the paper's §4 address-matching rules worry
        about).  Never touches the RNG and never evicts, so probing
        for staleness cannot perturb an unfaulted run.
        """
        entry = self._cache.get(normalize_name(name))
        if entry is None or entry.expires_at > self._loop.now():
            return None
        return _served_from_cache(entry.answer, ttl=0.0)

    def _cache_get(self, name: str) -> Optional[DnsAnswer]:
        entry = self._cache.get(name)
        if entry is None:
            return None
        if entry.expires_at <= self._loop.now():
            del self._cache[name]
            return None
        return _served_from_cache(entry.answer, ttl=entry.answer.ttl)

    # -- resolution ----------------------------------------------------------

    def resolve(
        self,
        name: str,
        callback: Callable[[DnsAnswer], None],
        on_error: Optional[Callable[[Exception], None]] = None,
    ) -> None:
        """Resolve asynchronously; ``callback`` gets the answer.

        Cache hits complete on the next loop turn with zero latency;
        misses complete after a drawn query latency.  Failures go to
        ``on_error`` (or are delivered as an empty answer when no error
        handler is given, which is how browsers experience NXDOMAIN).
        """
        name = normalize_name(name)
        self.stats.queries += 1
        tracer = self.tracer
        span = None
        if tracer.enabled:
            span = tracer.begin("dns.query", category="dns", qname=name)
        cached = self._cache_get(name)
        if cached is not None:
            self.stats.cache_hits += 1
            if span is not None:
                tracer.end(span, cache_hit=True, wire=False,
                           addresses=len(cached.addresses))
            if self.audit.enabled:
                self.audit.record("dns", ReasonCode.DNS_CACHE_HIT,
                                  hostname=name)
            self._loop.schedule(0.0, lambda: callback(cached))
            return

        waiters = self._in_flight.get(name)
        if waiters is not None:
            # Join the outstanding query; the joiner is served "from
            # cache" (it costs no additional wire query of its own).
            def joined(answer: DnsAnswer) -> None:
                if span is not None:
                    tracer.end(span, cache_hit=True, wire=False,
                               joined=True,
                               addresses=len(answer.addresses))
                callback(_served_from_cache(answer, ttl=answer.ttl))

            if self.audit.enabled:
                self.audit.record("dns",
                                  ReasonCode.DNS_JOINED_IN_FLIGHT,
                                  hostname=name)
            waiters.append(joined)
            return
        self._in_flight[name] = []

        self.stats.plaintext_queries += 1
        if self.audit.enabled:
            self.audit.record("dns", ReasonCode.DNS_WIRE_QUERY,
                              hostname=name)
        latency = self._draw_latency()

        def complete() -> None:
            waiting = self._in_flight.pop(name, [])
            if self.phases.enabled:
                self.phases.observe("dns", latency)
            try:
                addresses, ttl, chain = self._authority.query(name)
            except NxDomain as error:
                self.stats.nxdomain += 1
                if span is not None:
                    tracer.end(span, cache_hit=False, wire=True,
                               nxdomain=True, addresses=0)
                if self.audit.enabled:
                    self.audit.record("dns", ReasonCode.DNS_NXDOMAIN,
                                      hostname=name)
                empty = DnsAnswer(name=name, addresses=[], ttl=0.0,
                                  query_time_ms=latency)
                if on_error is not None:
                    on_error(error)
                else:
                    callback(empty)
                for waiter in waiting:
                    waiter(empty)
                return
            answer = DnsAnswer(
                name=name,
                addresses=addresses,
                ttl=ttl,
                cname_chain=chain,
                from_cache=False,
                query_time_ms=latency,
                https_alpn=(
                    self._authority.query_https(name)
                    if self.query_https_records else ()
                ),
            )
            self._cache[name] = CacheEntry(
                answer=answer, expires_at=self._loop.now() + ttl
            )
            if span is not None:
                tracer.end(span, cache_hit=False, wire=True,
                           nxdomain=False, addresses=len(addresses))
            callback(answer)
            for waiter in waiting:
                waiter(answer)

        self._loop.schedule(latency, complete)
