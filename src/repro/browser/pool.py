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

The pool's connections are one list in opening order, and every
lookup scans it (a page's pool holds about ten connections).
:class:`PoolStats` counts how each lookup was answered, and dead
(closed/failed) sessions a lookup visits are pruned from the list.

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
from typing import Callable, Dict, List, Optional, Sequence

from repro.audit.reasons import ReasonCode
from repro.browser.policy import CoalescingPolicy, ConnectionFacts
from repro.telemetry import (
    NULL_TELEMETRY,
    MetricsRegistry,
    RegistryStats,
    Telemetry,
)

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
    """Connection-pool counters.

    ``same_host_lookups`` .. ``candidates_examined`` are the lookup
    accounting: every find_same_host / find_coalescable call and how
    many candidates the policy actually examined.
    ``pruned_connections`` counts dead (closed/failed) entries removed
    from the pool.  ``quic`` holds the page's ``quic.*`` counts in
    first-use order (an h2-only load has none); :meth:`export` adds
    them after the pool counters.
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
        "candidates_examined",
        "pruned_connections",
    )

    def __init__(self) -> None:
        super().__init__()
        self.quic: Dict[str, int] = {}

    def count_quic(self, name: str, amount: int = 1) -> None:
        self.quic[name] = self.quic.get(name, 0) + amount

    def export(self, registry: MetricsRegistry) -> None:
        super().export(registry)
        for name, value in self.quic.items():
            registry.counter(name).inc(value)


class ConnectionPool:
    """Open sessions plus policy-driven reuse decisions.

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
        self.connections: List[ConnectionFacts] = []
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
        # By identity: ConnectionFacts compares by value.
        connections = self.connections
        for facts in dead:
            for index, candidate in enumerate(connections):
                if candidate is facts:
                    del connections[index]
                    self.stats.pruned_connections += 1
                    break

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

    def find_same_host(
        self, hostname: str, anonymous: bool = False
    ) -> LookupOutcome:
        """An existing connection whose SNI is this hostname.

        HTTP/1.1 sessions are only returned when idle; busy ones force
        the caller to open another connection (browser-style).
        """
        self.stats.same_host_lookups += 1
        found: Optional[ConnectionFacts] = None
        idle_h1: Optional[ConnectionFacts] = None
        at_cap: Optional[ConnectionFacts] = None
        h1_count = 0
        partition_skips = 0
        dead: List[ConnectionFacts] = []
        for facts in self.connections:
            if facts.sni != hostname:
                continue
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
        overlap_only = policy.requires_ip_overlap
        if overlap_only and not dns_addresses:
            # Every grant implies an address overlap with the DNS
            # answer, and there is none to overlap.
            outcome = LookupOutcome(None, ReasonCode.MISS_NO_DNS_OVERLAP)
            self._note_lookup("coalesce", hostname, outcome)
            return outcome
        found: Optional[ConnectionFacts] = None
        hit_reason = ReasonCode.POOL_HIT_IP_SAN
        miss_reason: Optional[ReasonCode] = None
        examined = 0
        skipped_other_host = False
        dead: List[ConnectionFacts] = []
        for facts in self.connections:
            if overlap_only and facts.connected_ip not in dns_addresses \
                    and facts.available_set.isdisjoint(dns_addresses):
                # No address in common, so the policy cannot grant
                # reuse: not a candidate, not even to be pruned.
                skipped_other_host = skipped_other_host or (
                    self._usable(facts)
                    and not facts.anonymous_partition
                    and facts.sni != hostname
                )
                continue
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
        elif skipped_other_host:
            # Usable connections to other hosts exist, but none shares
            # an address with the DNS answer.
            outcome = LookupOutcome(None, ReasonCode.MISS_NO_DNS_OVERLAP)
        else:
            outcome = LookupOutcome(None, ReasonCode.MISS_NO_CANDIDATE)
        self._note_lookup("coalesce", hostname, outcome)
        return outcome

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
            # from the pool immediately.
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
