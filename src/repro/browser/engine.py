"""The page-load engine.

Loads a :class:`~repro.web.page.WebPage` over the simulated network the
way a browser would: resolve, connect (or reuse per the active
coalescing policy), request, parse, discover children, repeat -- and
records everything as a HAR archive.  This plays the role WebPageTest +
Chrome played in the paper's data collection (§3.1), with the browser
policy swappable so Chromium, Firefox, Firefox+ORIGIN, and the ideal
client can all be compared on identical pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.audit.reasons import ReasonCode
from repro.browser.cache import BrowserCache
from repro.browser.policy import CoalescingPolicy, ConnectionFacts
from repro.browser.pool import ConnectionPool
from repro.browser.retry import RetryPolicy
from repro.dnssim.resolver import CachingResolver
from repro.netsim.network import Host, Network
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.tlspki.ca import CertificateAuthority
from repro.tlspki.validation import TrustStore
from repro.transport.tcp import DEFAULT_ALPN_OFFER, TcpTlsDialer
from repro.web.asdb import AsDatabase
from repro.web.har import (
    HarArchive,
    HarEntry,
    HarPage,
    HarTimings,
    NOT_APPLICABLE,
    elapsed,
)
from repro.web.page import FetchMode, Subresource, WebPage


@dataclass
class BrowserContext:
    """Everything a browser needs to load pages in one simulated world."""

    network: Network
    client_host: Host
    resolver: CachingResolver
    trust_store: TrustStore
    authorities: Sequence[CertificateAuthority]
    policy: CoalescingPolicy
    rng: Optional[np.random.Generator] = None
    #: Probability that opening a new connection races a duplicate
    #: (speculative/happy-eyeballs effects; §4.2).
    speculative_rate: float = 0.0
    #: Share of servers still negotiating TLS 1.2 (2 handshake RTTs);
    #: drawn per new connection when an RNG is available.
    tls12_rate: float = 0.0
    asdb: Optional[AsDatabase] = None
    cache_enabled: bool = False
    #: Sent on every request; the passive pipeline filters on it.
    user_agent: str = ""
    #: TLS session-ticket cache shared across this profile's
    #: connections; ``None`` disables resumption attempts.
    tls_session_cache: Optional[Dict] = None
    #: This profile's watch handle (tracer, audit log, metrics and
    #: its phase recorder; see :meth:`Telemetry.for_profile`).  The
    #: null default costs the fetch paths one flag read per emit site.
    telemetry: Telemetry = NULL_TELEMETRY
    #: Protocols this browser is willing to speak.  ``("h2",)`` is the
    #: pre-h3 browser; ``("h2", "h3")`` adds the QUIC dialer, HTTPS
    #: DNS-record awareness, and Alt-Svc upgrades.
    alpn: Sequence[str] = ("h2",)
    #: The unified retry policy.  The default allows no retries: an
    #: overload GOAWAY (ENHANCE_YOUR_CALM) or a lost connection
    #: surfaces as a failed request.
    retry_policy: RetryPolicy = RetryPolicy()
    #: Dedicated generator for retry jitter draws.  Kept separate
    #: from :attr:`rng` so enabling jittered retries never perturbs
    #: the TLS-version / speculative-connection decision stream.
    retry_rng: Optional[np.random.Generator] = None

    @property
    def h3_enabled(self) -> bool:
        return "h3" in tuple(self.alpn)


class _FetchState:
    """Bookkeeping for one in-flight resource fetch."""

    def __init__(
        self,
        resource: Optional[Subresource],
        hostname: str,
        path: str,
        started_at: float,
    ) -> None:
        self.resource = resource
        self.hostname = hostname
        self.path = path
        self.started_at = started_at
        self.timings = HarTimings(
            dns=NOT_APPLICABLE, connect=NOT_APPLICABLE, ssl=NOT_APPLICABLE
        )
        self.dns_addresses: List[str] = []
        #: ALPN protocols advertised by the hostname's HTTPS DNS
        #: record, when the resolver queried for one.
        self.https_alpn: tuple = ()
        #: Set when an Alt-Svc advertisement made this fetch skip
        #: same-host h2 reuse in favour of a new h3 connection.
        self.h3_upgrade = False
        self.coalesced = False
        self.retried_after_421 = False
        #: Whether this fetch runs in the anonymous connection
        #: partition; an overload retry must stay in its partition.
        self.anonymous = False
        #: Connection-attempt epoch: bumped by every
        #: ``_open_and_request`` and overload retry, so callbacks from
        #: a superseded attempt (its GOAWAY failure *and* the status-0
        #: responses from the dying transport) are recognized as stale
        #: and cannot double-record this fetch.
        self.attempt = 0
        #: True once a final HAR entry was recorded for this fetch.
        self.settled = False
        self.goaway_retries = 0
        #: Connection-loss retries (chaos class); counted separately
        #: from overload retries, as the legacy GOAWAY path did.
        self.loss_retries = 0
        #: When this fetch first lost a connection; the recovery
        #: histogram measures success time from here.
        self.first_loss_at: Optional[float] = None
        self.facts: Optional[ConnectionFacts] = None
        self.span = None
        #: Why the request was served the way it was; set at each
        #: decision point and stamped on the final audit event.
        self.reason: Optional[ReasonCode] = None

    @property
    def secure(self) -> bool:
        """False for a cleartext ``http://`` subresource."""
        return self.resource is None or self.resource.secure

    def describe(self) -> str:
        """One-line identity and progress, for the "never completed"
        invariant message."""
        secure = self.secure
        scheme = "https" if secure else "http"
        reason = self.reason.value if self.reason else "none"
        return (
            f"{scheme}://{self.hostname}{self.path} (secure={secure}, "
            f"reason={reason}, attempt={self.attempt}, "
            f"loss_retries={self.loss_retries}, "
            f"connect={self.timings.connect})"
        )

    def adopt_reason(self, reason: ReasonCode) -> None:
        """Adopt a (refined) miss reason, keeping an earlier, more
        specific same-host cause when one was recorded."""
        if self.reason in (ReasonCode.MISS_CANNOT_MULTIPLEX,
                           ReasonCode.MISS_CLOSED_STALE):
            return
        self.reason = reason


class PageLoad:
    """State for one page load; produced by :meth:`BrowserEngine.load`."""

    def __init__(
        self,
        engine: "BrowserEngine",
        page: WebPage,
        on_complete: Callable[[HarArchive], None],
    ) -> None:
        self.engine = engine
        self.context = engine.context
        self.page = page
        self.on_complete = on_complete
        context = self.context
        self.telemetry = telemetry = context.telemetry
        origin_aware = getattr(
            context.policy, "origin_frames", True
        ) or not context.policy.requires_dns_before_reuse
        offer = DEFAULT_ALPN_OFFER
        if context.h3_enabled:
            # Signals upgrade interest: h3-capable servers answer TCP
            # requests from this offer with an Alt-Svc header.
            offer = DEFAULT_ALPN_OFFER + ("h3",)
        self.tcp_dialer = TcpTlsDialer(
            context.network,
            context.client_host,
            context.trust_store,
            context.authorities,
            session_cache=context.tls_session_cache,
            alpn_offer=offer,
            origin_aware=origin_aware,
            telemetry=telemetry,
            page=self.page.url,
        )
        self.pool = ConnectionPool(
            policy=context.policy,
            dialer=self.tcp_dialer,
            prefer_h3=context.h3_enabled,
            telemetry=telemetry,
            page=self.page.url,
        )
        self.quic_dialer = None
        if context.h3_enabled:
            from repro.transport.quicsim import QuicDialer

            # quic.* counts land on the pool's stats, exported with
            # the pool counters when the load ends.
            self.quic_dialer = QuicDialer(
                context.network,
                context.client_host,
                context.trust_store,
                context.authorities,
                ticket_cache=engine.quic_tickets,
                origin_aware=origin_aware,
                telemetry=telemetry,
                page=self.page.url,
                stats=self.pool.stats,
            )
        self.entries: List[HarEntry] = []
        self.outstanding = 0
        #: Fetches begun and not yet settled, in start order (a dict
        #: used as an ordered set); a finished load leaves it empty.
        self.unsettled: Dict[_FetchState, None] = {}
        self.extra_tls = 0
        self.start_time = self.context.network.loop.now()
        self.root_status = 0
        self.finished = False

    @property
    def loop(self):
        return self.context.network.loop

    # -- entry points -----------------------------------------------------

    def start(self) -> None:
        self.outstanding += 1
        state = _FetchState(
            resource=None,
            hostname=self.page.hostname,
            path=self.page.root_path,
            started_at=self.loop.now(),
        )
        state.reason = ReasonCode.MISS_FIRST_CONTACT
        self.unsettled[state] = None
        self._begin_fetch_span(state, root=True)
        self._resolve_then_connect(state, anonymous=False)

    # -- fetch pipeline ------------------------------------------------------

    def _fetch_resource(self, resource: Subresource) -> None:
        self.outstanding += 1
        state = _FetchState(
            resource=resource,
            hostname=resource.hostname,
            path=resource.path,
            started_at=self.loop.now(),
        )
        self.unsettled[state] = None
        self._begin_fetch_span(state, root=False)
        anonymous = resource.fetch_mode is not FetchMode.NORMAL
        state.anonymous = anonymous

        if not resource.secure:
            state.reason = ReasonCode.MISS_CLEARTEXT_HTTP
            self._fetch_plain(state)
            return

        url = f"https://{resource.hostname}{resource.path}"
        if self.context.cache_enabled:
            cached = self.engine.cache.get(url, self.loop.now())
            if cached is not None:
                state.reason = ReasonCode.HIT_BROWSER_CACHE
                self._record_cached(state)
                return

        # Same-host reuse first: no DNS, no new connection.
        same_host = self.pool.find_same_host(
            resource.hostname, anonymous=anonymous
        )
        state.reason = same_host.reason
        if same_host:
            facts = same_host.facts
            if (
                self.quic_dialer is not None
                and not anonymous
                and facts.transport != "quic"
                and resource.hostname in self.engine.alt_svc_h3
            ):
                # The server advertised Alt-Svc h3: deliberately skip
                # the h2 connection and dial QUIC to the same address
                # (no DNS; RFC 7838 reuses the resolved endpoint).
                state.reason = ReasonCode.ALT_SVC_UPGRADE
                state.h3_upgrade = True
                state.dns_addresses = [facts.connected_ip]
                self._open_and_request(state, anonymous)
                return
            self.pool.note_same_host_reuse()
            self._reuse(state, facts, anonymous)
            return
        if anonymous:
            # The partition, not the pool's contents, is what forbids
            # coalescing from here on.
            state.adopt_reason(ReasonCode.MISS_ANONYMOUS_PARTITION)

        # DNS-free ORIGIN coalescing (ideal client, §6.8).
        if not self.context.policy.requires_dns_before_reuse and not anonymous:
            outcome = self.pool.find_coalescable(resource.hostname, ())
            if outcome:
                state.reason = outcome.reason
                state.coalesced = True
                self.pool.note_coalesced_reuse()
                self._reuse(state, outcome.facts, anonymous)
                return

        self._resolve_then_connect(state, anonymous)

    def _fetch_plain(self, state: _FetchState) -> None:
        """Cleartext http:// subresource: DNS, raw TCP, HTTP/1.1.

        A dial that is refused, or a connection torn down before its
        response (an on-path drop or reset), goes to the same retry
        decision point as a lost TLS connection, so the fetch always
        settles.
        """

        def on_answer(answer) -> None:
            if answer.empty:
                state.reason = ReasonCode.MISS_DNS_NXDOMAIN
                self._record_failure(state, "NXDOMAIN")
                return
            state.timings.dns = (
                NOT_APPLICABLE if answer.from_cache else answer.query_time_ms
            )
            state.dns_addresses = list(answer.addresses)
            connect_started = self.loop.now()
            attempt = state.attempt

            def on_connect(transport) -> None:
                state.timings.connect = self.loop.now() - connect_started
                protocol = self.tcp_dialer.plain_protocol(transport)

                def on_response(response) -> None:
                    self._record_success(state, response,
                                         plain_http=True)
                    transport.close()

                # Our own close, after the response, finds it settled.
                transport.on_close = lambda: self._connection_failed(
                    state, attempt, "connection lost"
                )
                protocol.request(state.hostname, state.path, on_response)

            self.context.network.connect(
                self.context.client_host,
                state.dns_addresses[0],
                80,
                on_connect,
                on_refused=lambda error: self._connection_failed(
                    state, attempt, str(error)
                ),
            )

        self.context.resolver.resolve(state.hostname, on_answer)

    def _resolve_then_connect(
        self, state: _FetchState, anonymous: bool
    ) -> None:
        def on_answer(answer) -> None:
            if answer.empty:
                state.reason = ReasonCode.MISS_DNS_NXDOMAIN
                self._record_failure(state, "NXDOMAIN")
                return
            state.timings.dns = (
                NOT_APPLICABLE if answer.from_cache else answer.query_time_ms
            )
            state.dns_addresses = list(answer.addresses)
            state.https_alpn = tuple(getattr(answer, "https_alpn", ()))
            # Cross-host coalescing after the (browser-mandated) query.
            if state.resource is not None and not anonymous:
                outcome = self.pool.find_coalescable(
                    state.hostname, answer.addresses
                )
                if outcome:
                    state.reason = outcome.reason
                    state.coalesced = True
                    self.pool.note_coalesced_reuse()
                    self._reuse(state, outcome.facts, anonymous)
                    return
                state.adopt_reason(outcome.reason)
            self._open_and_request(state, anonymous)

        self.context.resolver.resolve(state.hostname, on_answer)

    def _pick_dialer(self, state: _FetchState):
        """The dialer for a new connection; ``None`` means the pool's
        default (tcp-tls).  QUIC is chosen on an Alt-Svc upgrade, an
        HTTPS DNS record advertising h3, or a cached cross-host-valid
        session ticket."""
        quic = self.quic_dialer
        if quic is None:
            return None
        if state.h3_upgrade:
            return quic
        if "h3" in state.https_alpn:
            audit = self.telemetry.audit
            if audit.enabled:
                # Discovery event: first contact went straight to
                # QUIC because DNS said it could.  The decision
                # reason stays whatever the pool lookup produced.
                audit.record(
                    "h3", ReasonCode.HTTPS_RR_H3,
                    page=self.page.url, hostname=state.hostname,
                    path=state.path,
                )
            return quic
        if state.hostname in self.engine.alt_svc_h3:
            return quic
        if quic.has_ticket_for(state.hostname):
            return quic
        return None

    def _open_and_request(self, state: _FetchState, anonymous: bool) -> None:
        connect_started = self.loop.now()
        state.attempt += 1
        attempt = state.attempt
        tls13 = not (
            self.context.rng is not None
            and self.context.tls12_rate > 0
            and self.context.rng.random() < self.context.tls12_rate
        )
        dialer = self._pick_dialer(state)
        facts = self.pool.open_connection(
            hostname=state.hostname,
            ip=state.dns_addresses[0],
            available_set=state.dns_addresses,
            on_ready=lambda f: on_ready(f),
            on_failed=lambda reason: self._connection_failed(
                state, attempt, reason
            ),
            anonymous=anonymous,
            tls13=tls13,
            dialer=dialer,
        )

        def on_ready(facts: ConnectionFacts) -> None:
            if state.settled or state.attempt != attempt:
                return
            session = facts.session
            state.timings.connect = (
                session.tcp_connected_at - connect_started
            )
            state.timings.ssl = (
                session.connected_at - session.tcp_connected_at
            )
            self._issue(state, facts)

        self._maybe_race_duplicate(state, anonymous, dialer)

    def _connection_failed(
        self, state: _FetchState, attempt: int, reason: str
    ) -> None:
        """A connection this fetch was riding failed before its
        response: retry per the unified policy (overload GOAWAYs, and
        connection loss when the policy opts in), record everything
        else as a failed request."""
        if state.settled or state.attempt != attempt:
            return
        overload = reason.startswith("GOAWAY: ENHANCE_YOUR_CALM")
        if self._maybe_retry(state, overload=overload):
            return
        self._record_failure(state, reason)

    def _maybe_retry_dead(self, state: _FetchState) -> bool:
        """Status-0 response path: the transport died under an issued
        request.  An overload refusal closes the transport right after
        its GOAWAY, so the pending request surfaces as a dead response
        before (or instead of) the session-failure callback; a
        mid-flight teardown (injected fault, on-path RST) leaves
        ``failed`` unset but the session closed."""
        session = state.facts.session if state.facts else None
        if session is None:
            return False
        failure = getattr(session, "failed", None) or ""
        if failure.startswith("GOAWAY: ENHANCE_YOUR_CALM"):
            return self._maybe_retry(state, overload=True)
        if failure or session.closed:
            return self._maybe_retry(state, overload=False)
        return False

    def _maybe_retry(self, state: _FetchState, overload: bool) -> bool:
        """The single retry decision point for both failure classes."""
        policy = self.context.retry_policy
        if overload:
            if not policy.allows(state.goaway_retries + 1):
                return False
            state.goaway_retries += 1
            attempt = state.goaway_retries
            reason = ReasonCode.MISS_RETRY_AFTER_GOAWAY
        else:
            if not policy.retry_connection_loss:
                return False
            now = self.loop.now()
            if state.first_loss_at is None:
                state.first_loss_at = now
            if not policy.allows(state.loss_retries + 1) or \
                    not policy.within_budget(now - state.started_at):
                self._note_retry_exhausted(state)
                return False
            state.loss_retries += 1
            attempt = state.loss_retries
            reason = ReasonCode.RETRY_BACKOFF
        state.attempt += 1  # invalidate the dead attempt's callbacks
        state.coalesced = False
        state.reason = reason
        self.engine.retry_decisions += 1
        if state.goaway_retries + state.loss_retries == 1:
            self.engine.requests_retried += 1
        audit = self.telemetry.audit
        if audit.enabled:
            audit.record(
                "retry", reason,
                page=self.page.url, hostname=state.hostname,
                path=state.path, decision="retry",
                attempt=attempt,
            )
        backoff = policy.backoff_ms(attempt,
                                    rng=self.context.retry_rng)
        # Re-dial via DNS (warm cache on a retry): a fetch refused
        # while riding a pooled connection never resolved for itself,
        # and a fresh lookup lets the retry coalesce onto a surviving
        # connection instead of hammering the refusing edge.
        if state.secure:
            self.loop.schedule(
                backoff,
                lambda: self._resolve_then_connect(
                    state, anonymous=state.anonymous
                ),
            )
        else:
            self.loop.schedule(backoff, lambda: self._fetch_plain(state))
        return True

    def _note_retry_exhausted(self, state: _FetchState) -> None:
        """Connection-loss retries ran out; the failure stands, with
        the exhaustion (not a generic request failure) as its
        reason."""
        state.reason = ReasonCode.RETRY_EXHAUSTED
        self.engine.retry_decisions += 1
        self.engine.requests_exhausted += 1
        audit = self.telemetry.audit
        if audit.enabled:
            audit.record(
                "retry", ReasonCode.RETRY_EXHAUSTED,
                page=self.page.url, hostname=state.hostname,
                path=state.path, decision="exhausted",
                attempt=state.loss_retries,
            )

    def _maybe_race_duplicate(
        self, state: _FetchState, anonymous: bool, dialer=None
    ) -> None:
        """Speculative duplicate connection (no extra DNS; §4.2)."""
        rng = self.context.rng
        if rng is None or self.context.speculative_rate <= 0:
            return
        if rng.random() >= self.context.speculative_rate:
            return
        self.extra_tls += 1
        audit = self.telemetry.audit
        if audit.enabled:
            audit.record(
                "speculative", ReasonCode.MISS_SPECULATIVE_RACE,
                page=self.page.url, hostname=state.hostname,
                path=state.path, decision="speculative",
            )
        self.pool.open_connection(
            hostname=state.hostname,
            ip=state.dns_addresses[min(1, len(state.dns_addresses) - 1)],
            available_set=state.dns_addresses,
            on_ready=lambda f: None,
            on_failed=lambda reason: None,
            anonymous=anonymous,
            dialer=dialer,
        )

    def _reuse(
        self,
        state: _FetchState,
        facts: ConnectionFacts,
        anonymous: bool,
    ) -> None:
        state.facts = facts
        request_start = self.loop.now()

        def go() -> None:
            # Waiting for a still-connecting (or busy H1) session shows
            # up as HAR "blocked" time.
            state.timings.blocked = self.loop.now() - request_start
            self._issue(state, facts)

        facts.session.when_ready(
            go,
            lambda reason: self._connection_failed(
                state, state.attempt, reason
            ),
        )

    def _issue(self, state: _FetchState, facts: ConnectionFacts) -> None:
        state.facts = facts
        attempt = state.attempt
        referer = []
        if state.resource is not None:
            # Truncated at the page, as the paper's privacy-preserving
            # pipeline required (§5.1).
            referer = [("referer", self.page.url)]
        if self.context.user_agent:
            referer.append(("user-agent", self.context.user_agent))

        def on_response(response) -> None:
            if state.settled or state.attempt != attempt:
                return
            if response.status == 421 and not state.retried_after_421:
                # Misdirected: retry on a dedicated connection, keeping
                # the accumulated penalty in the same HAR entry.
                state.retried_after_421 = True
                state.coalesced = False
                state.reason = ReasonCode.MISS_MISDIRECTED_421
                self._open_and_request(state, anonymous=False)
                return
            if response.status == 0 and self._maybe_retry_dead(state):
                return
            self._record_success(state, response)

        facts.session.request(state.hostname, state.path, on_response,
                              extra_headers=referer)

    # -- tracing ------------------------------------------------------------

    def _begin_fetch_span(self, state: _FetchState, root: bool) -> None:
        tracer = self.telemetry.tracer
        if tracer.enabled:
            state.span = tracer.begin(
                "fetch", category="browser", page=self.page.url,
                hostname=state.hostname, path=state.path, root=root,
            )

    def _end_fetch_span(self, state: _FetchState, status: int,
                        via: str) -> None:
        if state.span is not None:
            self.telemetry.tracer.end(state.span, status=status, via=via)

    @staticmethod
    def _via(state: _FetchState) -> str:
        """How the entry was served, for the fetch span."""
        if state.coalesced:
            return "coalesced"
        if state.timings.ssl >= 0 or state.timings.connect >= 0:
            return "new"
        return "same-host"

    def _record_decision(self, state: _FetchState, status: int,
                         decision: str) -> None:
        """The final per-request audit event: how the request was
        served and why.  Last event wins for a (page, host, path) key,
        so a 421 retry's second verdict supersedes the first."""
        audit = self.telemetry.audit
        if not audit.enabled:
            return
        reason = state.reason or ReasonCode.MISS_UNATTRIBUTED
        audit.record(
            "decision", reason, page=self.page.url,
            hostname=state.hostname, path=state.path,
            decision=decision, status=status,
            coalesced=state.coalesced,
        )

    # -- recording ------------------------------------------------------------

    def _settle(self, state: _FetchState) -> bool:
        """Mark ``state`` settled (its one final HAR entry is about to
        be recorded); False if it already was."""
        if state.settled:
            return False
        state.settled = True
        del self.unsettled[state]
        return True

    def _content_type(self, state: _FetchState) -> str:
        if state.resource is not None:
            return state.resource.content_type.value
        return "text/html"

    def _make_entry(self, state: _FetchState, status: int,
                    body_size: int) -> HarEntry:
        session = state.facts.session if state.facts else None
        leaf = session.leaf_certificate if session else None
        new_tls = state.timings.ssl >= 0
        server_ip = state.facts.connected_ip if state.facts else ""
        asn, org = 0, ""
        if self.context.asdb is not None and server_ip:
            info = self.context.asdb.lookup(server_ip)
            if info is not None:
                asn, org = info.asn, info.org
        return HarEntry(
            url=f"https://{state.hostname}{state.path}",
            hostname=state.hostname,
            path=state.path,
            started_at=state.started_at,
            timings=state.timings,
            status=status,
            server_ip=server_ip,
            protocol=(
                getattr(session, "negotiated_protocol", "") or "h2"
                if session else ""
            ),
            content_type=self._content_type(state),
            transfer_size=body_size,
            dns_addresses=state.dns_addresses,
            certificate_san=list(leaf.san) if (leaf and new_tls) else [],
            certificate_issuer=(leaf.issuer if (leaf and new_tls) else ""),
            asn=asn,
            as_org=org,
            fetch_mode=(
                state.resource.fetch_mode.value
                if state.resource else "normal"
            ),
            coalesced=state.coalesced,
            initiator_path=(
                (state.resource.parent or self.page.root_path)
                if state.resource else ""
            ),
        )

    def _record_success(
        self, state: _FetchState, response,
        plain_http: bool = False,
    ) -> None:
        if not self._settle(state):
            return
        if self.quic_dialer is not None and not plain_http:
            # Remember Alt-Svc advertisements so the *next* fetch to
            # this hostname upgrades to h3 (RFC 7838 semantics: the
            # current response already arrived over the old protocol).
            for name, value in response.headers:
                if name == "alt-svc" and "h3" in value:
                    self.engine.alt_svc_h3.add(state.hostname)
                    break
        state.timings.wait = max(
            0.0, response.headers_at - response.sent_at
        )
        state.timings.receive = max(
            0.0, response.finished_at - response.headers_at
        )
        # Whatever wall-clock the phases above do not explain (queueing
        # on a busy HTTP/1.1 connection, a 421 retry, waiting on a
        # connecting session) is HAR "blocked" time, so that
        # started_at + total == the observed finish time.
        explained = elapsed(
            state.timings.dns, state.timings.connect,
            state.timings.ssl, state.timings.send,
            state.timings.wait, state.timings.receive,
        )
        state.timings.blocked = max(
            0.0, response.finished_at - state.started_at - explained
        )
        entry = self._make_entry(state, response.status, len(response.body))
        if plain_http:
            entry.secure = False
            entry.protocol = "http/1.1"
            entry.url = f"http://{state.hostname}{state.path}"
            entry.server_ip = state.dns_addresses[0]
            if self.context.asdb is not None:
                info = self.context.asdb.lookup(entry.server_ip)
                if info is not None:
                    entry.asn, entry.as_org = info.asn, info.org
        phases = self.telemetry.phases
        if phases.enabled:
            phases.observe("ttfb", state.timings.wait,
                           protocol=entry.protocol)
            if state.loss_retries and state.first_loss_at is not None:
                # Recovery latency: first connection loss to the
                # response that finally landed (chaos runs only; the
                # histogram does not exist otherwise).
                phases.observe(
                    "recovery",
                    response.finished_at - state.first_loss_at,
                    protocol=entry.protocol,
                )
        self.entries.append(entry)
        if state.resource is None:
            self.root_status = response.status
        if self.context.cache_enabled and response.status == 200:
            self.engine.cache.store(
                entry.url, len(response.body), self.loop.now()
            )
        via = "cleartext" if plain_http else self._via(state)
        self._record_decision(state, response.status, via)
        self._end_fetch_span(state, response.status, self._via(state))
        self._discover_children(state, response.status)
        self._done_one()

    def _record_cached(self, state: _FetchState) -> None:
        if not self._settle(state):
            return
        entry = self._make_entry(state, 200, 0)
        entry.protocol = "cache"
        self.entries.append(entry)
        self._record_decision(state, 200, "cache")
        self._end_fetch_span(state, 200, "cache")
        self._discover_children(state, 200)
        self._done_one()

    def _record_failure(self, state: _FetchState, reason: str) -> None:
        if not self._settle(state):
            return
        entry = self._make_entry(state, 0, 0)
        self.entries.append(entry)
        if state.resource is None:
            self.root_status = 0
        if state.reason not in (ReasonCode.MISS_DNS_NXDOMAIN,
                                ReasonCode.RETRY_EXHAUSTED):
            state.reason = ReasonCode.MISS_REQUEST_FAILED
        self._record_decision(state, 0, "failed")
        if state.span is not None:
            self.telemetry.tracer.end(state.span, status=0,
                                      via="failed", error=reason)
        self._done_one()

    def _discover_children(self, state: _FetchState, status: int) -> None:
        if status != 200:
            return
        is_root = state.resource is None
        can_discover = is_root or state.resource.content_type.can_discover_children
        if not can_discover:
            return
        for child in self.page.children_of(state.path):
            self.outstanding += 1

            def launch(resource=child) -> None:
                self.outstanding -= 1  # handed over to _fetch_resource
                self._fetch_resource(resource)

            self.loop.schedule(child.discovery_delay_ms, launch)

    def _done_one(self) -> None:
        self.outstanding -= 1
        if self.outstanding == 0 and not self.finished:
            self.finished = True
            self._finish()

    def _finish(self) -> None:
        on_load = max(
            (entry.finished_at for entry in self.entries), default=0.0
        ) - self.start_time
        blocking_paths = {
            resource.path
            for resource in self.page.resources
            if resource.content_type.is_render_blocking
        }
        blocking = [
            entry.finished_at
            for entry in self.entries
            if entry.path == self.page.root_path
            or entry.path in blocking_paths
        ]
        on_content_load = (
            max(blocking) - self.start_time if blocking else on_load
        )
        page = HarPage(
            url=self.page.url,
            hostname=self.page.hostname,
            rank=self.page.rank,
            on_content_load=on_content_load,
            on_load=on_load,
            success=self.root_status == 200,
            failure_reason="" if self.root_status == 200 else
            f"root status {self.root_status}",
            extra_tls_connections=self.extra_tls,
        )
        phases = self.telemetry.phases
        if phases.enabled and page.success:
            phases.observe("page", on_load)
        self.pool.close_all()
        if self.telemetry.enabled:
            # The load's pool and quic.* counters, exported into the
            # run's registry once the load is over.
            self.pool.stats.export(self.telemetry.metrics)
        self.on_complete(HarArchive(page=page, entries=self.entries))


class BrowserEngine:
    """Loads pages with a given policy; one engine per browser profile."""

    def __init__(self, context: BrowserContext) -> None:
        self.context = context
        self.cache = BrowserCache(enabled=context.cache_enabled)
        #: Hostnames whose responses advertised ``Alt-Svc: h3``;
        #: subsequent fetches to them dial QUIC.
        self.alt_svc_h3: set = set()
        #: QUIC session tickets (cross-hostname validity), shared by
        #: every page load in one browser session.
        self.quic_tickets: List[dict] = []
        #: Retry decisions taken, retried or exhausted -- one per
        #: ``retry`` audit event, counted whether or not anyone audits.
        self.retry_decisions = 0
        #: Requests retried at least once / that ran out of retries:
        #: one count per request, not per decision.
        self.requests_retried = 0
        self.requests_exhausted = 0

    def load(
        self, page: WebPage, on_complete: Callable[[HarArchive], None]
    ) -> PageLoad:
        """Begin loading ``page``; ``on_complete`` gets the HAR archive.

        Run the network's event loop to drive the load to completion.
        """
        load = PageLoad(self, page, on_complete)
        load.start()
        return load

    def load_blocking(self, page: WebPage) -> HarArchive:
        """Convenience: load and run the loop until the page finishes."""
        result: List[HarArchive] = []
        load = self.load(page, result.append)
        self.context.network.loop.run_until_idle()
        if not result:
            # Invariant: the loop only drains once every fetch settled.
            # Name the ones that did not (ROADMAP "Chaos must
            # terminate").
            unsettled = "; ".join(
                state.describe() for state in load.unsettled
            )
            raise RuntimeError(
                f"page load for {page.url} never completed: "
                f"{len(load.unsettled)} unsettled fetch(es): "
                f"{unsettled or 'none'}"
            )
        return result[0]

    def new_session(self) -> None:
        """Fresh browser session: flush the resource cache, the DNS
        cache, and TLS session tickets, as the paper's active
        measurements did between loads (§3.1)."""
        self.cache.flush()
        self.context.resolver.flush_cache()
        if self.context.tls_session_cache is not None:
            self.context.tls_session_cache.clear()
        self.alt_svc_h3.clear()
        self.quic_tickets.clear()
