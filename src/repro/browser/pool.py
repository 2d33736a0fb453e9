"""Browser connection pool.

Owns the open sessions for one page-load context, answers
"can anything serve this hostname?", and opens new connections when
nothing can.  Reuse comes in two flavours the statistics distinguish:

* *same-host reuse* -- another request to a hostname the pool already
  has a connection for (ordinary HTTP/2 behaviour);
* *coalesced reuse* -- a request to a different hostname served over an
  existing connection, authorized by the active
  :class:`~repro.browser.policy.CoalescingPolicy`.

Requests with ``crossorigin=anonymous`` / ``fetch()`` semantics live in
a separate credential-less partition and never reuse (or donate)
connections across the partition boundary, which is the §5.3
observation that capped coalescing in the deployment.

Lookups are indexed: the pool keeps a hostname->connections map (for
same-host reuse) and an IP->connections map (consulted when the active
policy only grants reuse on address overlap), so neither hot path
scans every open connection.  :class:`PoolStats` counts how each
lookup was answered, and dead (closed/failed) sessions are pruned from
the registry and both indexes as soon as a lookup or accounting path
touches them.

The pool opens sessions through a *dialer*: any object with a ``name``
(stamped on :attr:`ConnectionFacts.transport`) and
``dial(hostname, ip, tls13=None)``, which returns an unconnected
session.  A session provides ``connect(on_ready, on_failed)``,
``when_ready``, ``request`` and ``close``; the ``closed`` / ``failed``
state the pool prunes on, and ``h1_busy``; a
:class:`~repro.transport.base.SessionCapabilities` record as
``capabilities``; ``certificate_covers`` and ``origin_set_covers`` for
the policies; and, for the engine's HAR entries,
``negotiated_protocol``, ``leaf_certificate`` and the handshake
timestamps ``tcp_connected_at`` / ``connected_at``.

Every lookup returns a :class:`LookupOutcome` whose
:class:`~repro.audit.reasons.ReasonCode` says *why* the connection was
(or was not) reused; the same code is stamped on the pool's trace
events and audit-log entries, so the three can never disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.audit.reasons import ReasonCode
from repro.browser.policy import CoalescingPolicy, ConnectionFacts
from repro.telemetry import NULL_TELEMETRY, RegistryStats, Telemetry

#: Browsers cap parallel HTTP/1.1 connections per host; 6 is the
#: long-standing Chromium/Firefox default.
MAX_H1_CONNECTIONS_PER_HOST = 6


@dataclass(frozen=True)
class LookupOutcome:
    """A pool lookup's answer plus the reason code explaining it.

    Truthy exactly when a connection was found, so call sites read
    naturally (``if outcome: reuse(outcome.facts)``).
    """

    facts: Optional[ConnectionFacts]
    reason: ReasonCode

    @property
    def hit(self) -> bool:
        return self.facts is not None

    def __bool__(self) -> bool:
        return self.facts is not None


#: When a coalesce lookup rejects several candidates for different
#: reasons, report the one that came closest to a grant: a pure
#: address-overlap failure (the §2.3 transitivity loss) beats a SAN
#: failure beats a protocol failure.
_COALESCE_MISS_PRIORITY = {
    ReasonCode.MISS_NO_DNS_OVERLAP: 3,
    ReasonCode.MISS_SAN_MISMATCH: 2,
    ReasonCode.MISS_CANNOT_MULTIPLEX: 1,
}


class PoolStats(RegistryStats):
    """Connection-pool counters, backed by the unified metrics
    registry.

    ``same_host_lookups`` .. ``candidates_examined`` are the lookup
    accounting: every find_same_host / find_coalescable call, how it
    was served, and how many candidates the policy actually examined
    -- the evidence that indexing did not change behaviour, only the
    amount of work.  ``pruned_connections`` counts dead
    (closed/failed) entries removed from the registry.
    """

    _prefix = "pool."
    _counters = (
        "connections_opened",
        "tls_handshakes",
        "same_host_reuses",
        "coalesced_reuses",
        "connection_failures",
        "same_host_lookups",
        "coalesce_lookups",
        "indexed_lookups",
        "full_scans",
        "candidates_examined",
        "pruned_connections",
    )


class ConnectionRegistry(List[ConnectionFacts]):
    """The pool's connection list plus its two lookup indexes.

    Behaves as a plain list of :class:`ConnectionFacts` (iteration and
    ``append`` keep working for callers and tests), while maintaining a
    hostname index keyed by SNI and an address index keyed by every IP
    in each connection's connected/available set.
    """

    def __init__(self, items: Iterable[ConnectionFacts] = ()) -> None:
        super().__init__()
        self.by_sni: Dict[str, List[ConnectionFacts]] = {}
        self.by_ip: Dict[str, List[ConnectionFacts]] = {}
        self._next_seq = 0
        for facts in items:
            self.append(facts)

    # -- mutation (keeps indexes in sync) ---------------------------------

    def append(self, facts: ConnectionFacts) -> None:
        facts.pool_seq = self._next_seq
        self._next_seq += 1
        super().append(facts)
        self.by_sni.setdefault(facts.sni, []).append(facts)
        for ip in self._addresses_of(facts):
            self.by_ip.setdefault(ip, []).append(facts)

    def discard(self, facts: ConnectionFacts) -> bool:
        """Remove one entry (by identity) from the list and indexes."""
        for index, candidate in enumerate(self):
            if candidate is facts:
                del self[index]
                break
        else:
            return False
        self._unindex(facts)
        return True

    def clear(self) -> None:
        super().clear()
        self.by_sni.clear()
        self.by_ip.clear()

    def _unindex(self, facts: ConnectionFacts) -> None:
        bucket = self.by_sni.get(facts.sni, [])
        self._remove_identity(bucket, facts)
        if not bucket:
            self.by_sni.pop(facts.sni, None)
        for ip in self._addresses_of(facts):
            bucket = self.by_ip.get(ip, [])
            self._remove_identity(bucket, facts)
            if not bucket:
                self.by_ip.pop(ip, None)

    @staticmethod
    def _remove_identity(bucket: List[ConnectionFacts],
                         facts: ConnectionFacts) -> None:
        for index, candidate in enumerate(bucket):
            if candidate is facts:
                del bucket[index]
                return

    @staticmethod
    def _addresses_of(facts: ConnectionFacts) -> frozenset:
        addresses = set(facts.available_set)
        if facts.connected_ip:
            addresses.add(facts.connected_ip)
        return frozenset(addresses)

    # -- lookup -----------------------------------------------------------

    def for_host(self, hostname: str) -> List[ConnectionFacts]:
        """Connections with this SNI, in pool insertion order."""
        return self.by_sni.get(hostname, [])

    def candidates_for_ips(
        self, addresses: Sequence[str]
    ) -> List[ConnectionFacts]:
        """Connections whose address set touches ``addresses``,
        deduplicated and in pool insertion order."""
        seen = set()
        candidates: List[ConnectionFacts] = []
        for address in addresses:
            for facts in self.by_ip.get(address, ()):
                if id(facts) not in seen:
                    seen.add(id(facts))
                    candidates.append(facts)
        candidates.sort(key=lambda facts: facts.pool_seq)
        return candidates


class ConnectionPool:
    """Session registry plus policy-driven reuse decisions.

    The pool is protocol-agnostic: it opens sessions through a dialer
    (see the module docstring) and keys its decisions on each
    session's :class:`~repro.transport.base.SessionCapabilities`,
    never on concrete session classes.  ``dialer`` is the default used
    by :meth:`open_connection`; callers may pass a different one per
    call (the engine does this to open QUIC connections after an
    Alt-Svc or HTTPS-record discovery).
    """

    def __init__(
        self,
        policy: CoalescingPolicy,
        dialer=None,
        prefer_h3: bool = False,
        telemetry: Telemetry = NULL_TELEMETRY,
        page: str = "",
    ) -> None:
        self.policy = policy
        self.dialer = dialer
        #: When True, same-host lookups keep scanning past a usable
        #: tcp-tls entry in case a quic one exists for the hostname
        #: (a browser that has upgraded a host prefers its h3
        #: connection).  Off by default so h2-only crawls examine
        #: exactly the candidates they did pre-refactor.
        self.prefer_h3 = prefer_h3
        self.connections = ConnectionRegistry()
        self.stats = PoolStats()
        self.tracer = telemetry.tracer
        self.audit = telemetry.audit
        #: Page URL stamped on this pool's audit events (one pool per
        #: page load).
        self.page = page

    # -- lookup -------------------------------------------------------------

    def _usable(self, facts: ConnectionFacts) -> bool:
        session = facts.session
        return not session.closed and session.failed is None

    def _prune(self, dead: Sequence[ConnectionFacts]) -> None:
        for facts in dead:
            if self.connections.discard(facts):
                self.stats.pruned_connections += 1

    def _note_lookup(self, kind: str, hostname: str,
                     outcome: LookupOutcome) -> None:
        """Record one lookup verdict on the trace and the audit log.

        Both carry the same :class:`~repro.audit.reasons.ReasonCode`,
        so the two streams cannot disagree.
        """
        if self.tracer.enabled:
            self.tracer.instant(
                "pool.lookup", category="pool", kind=kind,
                hostname=hostname, hit=outcome.hit,
                reason=outcome.reason.value,
            )
        if self.audit.enabled:
            self.audit.record(
                "lookup", outcome.reason, page=self.page,
                hostname=hostname, lookup=kind, hit=outcome.hit,
                reused_sni=outcome.facts.sni if outcome.facts else "",
            )

    @property
    def observed(self) -> bool:
        """Whether any observer (tracer or audit log) is live; precise
        miss classification is only worth extra work when one is."""
        return self.tracer.enabled or self.audit.enabled

    def find_same_host(
        self, hostname: str, anonymous: bool = False
    ) -> LookupOutcome:
        """An existing connection whose SNI is this hostname.

        HTTP/1.1 sessions are only returned when idle; busy ones force
        the caller to open another connection (browser-style).
        """
        self.stats.same_host_lookups += 1
        self.stats.indexed_lookups += 1
        found: Optional[ConnectionFacts] = None
        idle_h1: Optional[ConnectionFacts] = None
        at_cap: Optional[ConnectionFacts] = None
        h1_count = 0
        partition_skips = 0
        dead: List[ConnectionFacts] = []
        for facts in self.connections.for_host(hostname):
            if not self._usable(facts):
                dead.append(facts)
                continue
            if facts.anonymous_partition != anonymous:
                partition_skips += 1
                continue
            self.stats.candidates_examined += 1
            if facts.can_multiplex:
                if not self.prefer_h3:
                    found = facts
                    break
                if facts.transport == "quic":
                    found = facts
                    break
                if found is None:
                    # Usable, but keep scanning in case the host was
                    # upgraded to h3 after this entry was opened.
                    found = facts
                continue
            if at_cap is None:
                at_cap = facts
            h1_count += 1
            if not facts.session.h1_busy and idle_h1 is None:
                idle_h1 = facts
        self._prune(dead)
        if found is not None:
            outcome = LookupOutcome(found, ReasonCode.POOL_HIT_SAME_HOST)
        elif idle_h1 is not None:
            outcome = LookupOutcome(idle_h1, ReasonCode.POOL_HIT_H1_IDLE)
        elif h1_count >= MAX_H1_CONNECTIONS_PER_HOST:
            # At the cap: reuse the first (requests will queue on it).
            outcome = LookupOutcome(at_cap, ReasonCode.POOL_HIT_H1_CAP)
        elif h1_count:
            # Busy HTTP/1.1 connections under the cap: the browser
            # opens another parallel connection.
            outcome = LookupOutcome(
                None, ReasonCode.MISS_CANNOT_MULTIPLEX
            )
        elif dead:
            outcome = LookupOutcome(None, ReasonCode.MISS_CLOSED_STALE)
        elif partition_skips:
            outcome = LookupOutcome(
                None, ReasonCode.MISS_ANONYMOUS_PARTITION
            )
        else:
            outcome = LookupOutcome(None, ReasonCode.MISS_NO_CONNECTION)
        self._note_lookup("same-host", hostname, outcome)
        return outcome

    def find_coalescable(
        self,
        hostname: str,
        dns_addresses: Sequence[str],
        anonymous: bool = False,
    ) -> LookupOutcome:
        """An existing connection the policy lets this hostname reuse."""
        if anonymous:
            # Credential-less fetches do not coalesce (§5.3).
            outcome = LookupOutcome(
                None, ReasonCode.MISS_ANONYMOUS_PARTITION
            )
            self._note_lookup("coalesce", hostname, outcome)
            return outcome
        self.stats.coalesce_lookups += 1
        policy = self.policy
        if not policy.coalesces:
            outcome = LookupOutcome(None, ReasonCode.MISS_POLICY_FORBIDS)
            self._note_lookup("coalesce", hostname, outcome)
            return outcome
        indexed = policy.requires_ip_overlap
        if indexed:
            # Every grant implies an address overlap, so only
            # connections sharing an address with the DNS answer can
            # possibly match.
            if not dns_addresses:
                outcome = LookupOutcome(
                    None, ReasonCode.MISS_NO_DNS_OVERLAP
                )
                self._note_lookup("coalesce", hostname, outcome)
                return outcome
            self.stats.indexed_lookups += 1
            candidates: Iterable[ConnectionFacts] = (
                self.connections.candidates_for_ips(dns_addresses)
            )
        else:
            # ORIGIN-frame policies may reuse without any IP overlap;
            # their authority (the origin set) lives in the session, so
            # the full registry is the candidate set.
            self.stats.full_scans += 1
            candidates = list(self.connections)
        found: Optional[ConnectionFacts] = None
        hit_reason = ReasonCode.POOL_HIT_IP_SAN
        miss_reason: Optional[ReasonCode] = None
        examined = 0
        dead: List[ConnectionFacts] = []
        for facts in candidates:
            if not self._usable(facts):
                dead.append(facts)
                continue
            if facts.anonymous_partition:
                continue
            if facts.sni == hostname:
                continue  # that would be same-host reuse
            self.stats.candidates_examined += 1
            examined += 1
            verdict = policy.explain(facts, hostname, dns_addresses)
            if verdict.is_hit:
                found = facts
                hit_reason = verdict
                break
            if miss_reason is None or (
                _COALESCE_MISS_PRIORITY.get(verdict, 0)
                > _COALESCE_MISS_PRIORITY.get(miss_reason, 0)
            ):
                miss_reason = verdict
        self._prune(dead)
        if found is not None:
            outcome = LookupOutcome(found, hit_reason)
        elif examined:
            outcome = LookupOutcome(
                None, miss_reason or ReasonCode.MISS_NO_CANDIDATE
            )
        elif indexed and self.observed and self._has_other_usable(
            hostname
        ):
            # The IP index returned nothing, but usable connections to
            # other hosts exist -- none shares an address with the DNS
            # answer.  (Classification only; skipped unobserved.)
            outcome = LookupOutcome(None, ReasonCode.MISS_NO_DNS_OVERLAP)
        else:
            outcome = LookupOutcome(None, ReasonCode.MISS_NO_CANDIDATE)
        self._note_lookup("coalesce", hostname, outcome)
        return outcome

    def _has_other_usable(self, hostname: str) -> bool:
        """Any usable, non-anonymous connection with a different SNI."""
        return any(
            self._usable(facts)
            and not facts.anonymous_partition
            and facts.sni != hostname
            for facts in self.connections
        )

    # -- opening -------------------------------------------------------------

    def open_connection(
        self,
        hostname: str,
        ip: str,
        available_set: Sequence[str],
        on_ready: Callable[[ConnectionFacts], None],
        on_failed: Callable[[str], None],
        anonymous: bool = False,
        tls13: Optional[bool] = None,
        dialer=None,
    ) -> ConnectionFacts:
        """Open a new connection to ``ip`` with SNI ``hostname``.

        ``dialer`` overrides the pool's default for this one call; the
        session is registered before its ``connect`` runs, so
        in-flight connections are visible to concurrent lookups exactly
        as before the session layer existed.
        """
        active = dialer if dialer is not None else self.dialer
        session = active.dial(hostname, ip, tls13=tls13)
        facts = ConnectionFacts(
            session=session,
            sni=hostname,
            connected_ip=ip,
            available_set=frozenset(available_set),
            anonymous_partition=anonymous,
            transport=active.name,
        )
        self.connections.append(facts)
        self.stats.connections_opened += 1

        def ready() -> None:
            self.stats.tls_handshakes += 1
            on_ready(facts)

        def failed(reason: str) -> None:
            self.stats.connection_failures += 1
            # A failed session can never serve a request again; drop it
            # from the registry and indexes immediately.
            self._prune([facts])
            on_failed(reason)

        session.connect(on_ready=ready, on_failed=failed)
        return facts

    def note_same_host_reuse(self) -> None:
        self.stats.same_host_reuses += 1

    def note_coalesced_reuse(self) -> None:
        self.stats.coalesced_reuses += 1

    def close_all(self) -> None:
        closed = len(self.connections)
        for facts in list(self.connections):
            facts.session.close()
        self.connections.clear()
        self.stats.pruned_connections += closed
