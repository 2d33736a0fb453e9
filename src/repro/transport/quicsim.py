"""Deterministic QUIC-flavored transport (``quic`` dialer, h3).

Models the properties of QUIC that matter for connection coalescing
and handshake economics, on the same simulated event loop and record
framing as the TLS-over-TCP stack:

* **Combined handshake** -- transport setup and TLS ride the same
  flight, so a full handshake costs one round trip where TCP+TLS 1.3
  costs two (and TLS 1.2 three).
* **Cross-hostname session tickets** -- a ticket issued on one
  hostname resumes sessions to *any* hostname the issuing certificate
  covers, as Sy et al. measured for QUIC deployments; the client
  checks coverage before offering, the server re-checks on receipt.
* **0-RTT resumption** -- with a valid ticket the client treats the
  session as established immediately and its first request rides the
  first flight: zero round trips before application data.
* **Opacity** -- QUIC is encrypted from the first packet, so datagram
  flows bypass the network-tap interposers (the §6.7 middlebox cannot
  parse, and therefore cannot tear down, an h3 connection).

The HTTP layer is the same frame machinery as h2 (RFC 9114 keeps the
semantics; the framing difference is irrelevant to coalescing), so
:class:`QuicClientSession` reuses :class:`~repro.h2.client.
H2ClientSession` wholesale and only replaces the connection
establishment.  Ticket validation failures alert and fail the
connection; clients only offer tickets whose cached chain covers the
hostname, so this cannot happen in generated worlds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.audit.reasons import ReasonCode
from repro.h2.client import HTTPS_PORT, H2ClientSession
from repro.h2.server import ServerConnection
from repro.h2.tls_channel import (
    TlsChannel,
    deserialize_chain,
    serialize_chain,
)
from repro.netsim.network import Host, Network
from repro.netsim.transport import Transport
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.tlspki.ca import CertificateAuthority
from repro.tlspki.certificate import Certificate
from repro.tlspki.validation import TrustStore, validate_chain
from repro.transport.base import DEFAULT_MAX_STREAMS, SessionCapabilities
from repro.transport.framing import (
    REC_ALERT,
    REC_APPDATA,
    REC_CERT,
    REC_FINISHED,
    REC_HELLO,
    REC_SHELLO,
    REC_TICKET,
    pack_record,
)


class QuicTicketManager:
    """Server-side QUIC session tickets.

    Unlike the TLS :class:`~repro.h2.tls_channel.TicketManager` (exact
    SNI match), a QUIC ticket resumes any hostname the issuing
    certificate covers -- the cross-hostname validity Sy et al.
    measured in deployed QUIC stacks.
    """

    def __init__(self) -> None:
        self._tickets: dict = {}
        self._counter = 0

    def issue(self, chain: Sequence[Certificate]) -> str:
        self._counter += 1
        ticket = f"quic-ticket-{self._counter:08d}"
        self._tickets[ticket] = list(chain)
        return ticket

    def validate(self, ticket: str, sni: str) -> bool:
        chain = self._tickets.get(ticket)
        return bool(chain) and chain[0].covers(sni)


@dataclass
class QuicClientConfig:
    """What a QUIC client needs; shaped like
    :class:`~repro.h2.tls_channel.TlsClientConfig` where the session
    machinery reads it (``sni``, ``now``, ``trust_store``,
    ``authorities``)."""

    sni: str
    trust_store: TrustStore
    authorities: Sequence[CertificateAuthority]
    now: Callable[[], float]
    alpn: Tuple[str, ...] = ("h3",)
    #: Shared per-browser-session ticket list; entries are dicts with
    #: ``ticket``, ``sni`` (issuing hostname), and ``chain`` keys.
    #: A list, not an SNI-keyed dict: one ticket serves every hostname
    #: its chain covers.
    ticket_cache: Optional[List[dict]] = None


def find_ticket(cache: Optional[List[dict]],
                hostname: str) -> Optional[dict]:
    """The cached ticket to offer for ``hostname``: an exact-SNI match
    first, else the first whose certificate covers the hostname."""
    if not cache:
        return None
    covering = None
    for entry in cache:
        chain = entry.get("chain") or []
        if not chain or not chain[0].covers(hostname):
            continue
        if entry.get("sni") == hostname:
            return entry
        if covering is None:
            covering = entry
    return covering


class QuicClientChannel(TlsChannel):
    """Client side of the combined transport+TLS handshake."""

    def __init__(self, transport: Transport, config: QuicClientConfig,
                 schedule: Callable[[float, Callable[[], None]], None],
                 telemetry: Telemetry = NULL_TELEMETRY) -> None:
        super().__init__(transport, telemetry)
        self.config = config
        self._schedule = schedule
        self.server_chain: List[Certificate] = []
        self.resumed = False
        self.cross_host = False
        self.ticket_sni = ""

    def start(self) -> None:
        if self.tracer.enabled:
            self._handshake_span = self.tracer.begin(
                "quic.handshake", category="quic", sni=self.config.sni,
            )
        hello = {"sni": self.config.sni, "alpn": list(self.config.alpn)}
        entry = find_ticket(self.config.ticket_cache, self.config.sni)
        if entry is not None:
            hello["ticket"] = entry["ticket"]
        # The Initial is encrypted: an on-path observer sees no SNI.
        self.transport.send(
            pack_record(REC_HELLO, json.dumps(hello).encode("utf-8"))
        )
        if entry is not None:
            # 0-RTT: the cached chain is this session's authority and
            # the first request rides the same flight as the hello.
            # Established on the next loop turn (not synchronously) so
            # callers observe the same call ordering as every other
            # transport's connect.
            self.resumed = True
            self.cross_host = entry["sni"] != self.config.sni
            self.ticket_sni = entry["sni"]
            self.server_chain = list(entry["chain"])
            self.negotiated_alpn = self.config.alpn[0]
            self._schedule(0.0, self._establish)

    def _on_record(self, record_type: int, payload: bytes) -> None:
        if record_type == REC_SHELLO:
            hello = json.loads(payload.decode("utf-8"))
            if not self.resumed:
                self.negotiated_alpn = hello.get("alpn")
        elif record_type == REC_CERT:
            self.server_chain = deserialize_chain(payload)
            result = validate_chain(
                self.server_chain,
                self.config.sni,
                self.config.now(),
                self.config.trust_store,
                self.config.authorities,
            )
            if not result.ok:
                self._fail("; ".join(result.errors))
                return
            self.transport.send(pack_record(REC_FINISHED, b""))
            self._establish()
        elif record_type == REC_FINISHED:
            # Server Finished; with ``b"resumed"`` it confirms the
            # ticket our 0-RTT path already acted on.
            pass
        elif record_type == REC_TICKET:
            cache = self.config.ticket_cache
            if cache is not None and self.server_chain:
                cache.append({
                    "ticket": payload.decode("ascii"),
                    "sni": self.config.sni,
                    "chain": list(self.server_chain),
                })
        elif record_type == REC_ALERT:
            self._on_alert(payload)
        elif record_type == REC_APPDATA:
            if self.on_app_data is not None:
                self.on_app_data(payload)

    def _establish(self) -> None:
        if self.established:
            return
        self.established = True
        self._end_handshake_span(
            ok=True, resumed=self.resumed, cross_host=self.cross_host,
            alpn=self.negotiated_alpn,
        )
        if self.on_established is not None:
            self.on_established()


class QuicServerChannel(TlsChannel):
    """Server side: one flight answers the hello (SHELLO + CERT +
    FINISHED together), or confirms a resumed ticket."""

    def __init__(
        self,
        transport: Transport,
        chain_selector: Callable[[str], Optional[Sequence[Certificate]]],
        supported_alpn: Tuple[str, ...] = ("h3",),
        ticket_manager: Optional[QuicTicketManager] = None,
    ) -> None:
        super().__init__(transport)
        self._chain_selector = chain_selector
        self.supported_alpn = supported_alpn
        self.ticket_manager = ticket_manager
        self.client_sni = ""
        self.negotiated_alpn = None
        self.resumed = False
        self.client_offered_alpn: Tuple[str, ...] = ()

    def _on_record(self, record_type: int, payload: bytes) -> None:
        if record_type == REC_HELLO:
            hello = json.loads(payload.decode("utf-8"))
            self.client_sni = hello.get("sni", "")
            offered = hello.get("alpn") or []
            self.client_offered_alpn = tuple(offered)
            supported = self.supported_alpn
            if callable(supported):
                supported = supported(self.client_sni)
            self.negotiated_alpn = next(
                (p for p in supported if p in offered), None
            )
            if self.negotiated_alpn is None:
                self._fail(
                    f"no common ALPN protocol (offered {offered}, "
                    f"supported {list(supported)})"
                )
                return
            chain = self._chain_selector(self.client_sni)
            if chain is None:
                self._fail(f"no certificate for {self.client_sni!r}")
                return
            self.transport.send(
                pack_record(
                    REC_SHELLO,
                    json.dumps({"alpn": self.negotiated_alpn}).encode(),
                )
            )
            ticket = hello.get("ticket")
            if (
                ticket
                and self.ticket_manager is not None
                and self.ticket_manager.validate(ticket, self.client_sni)
            ):
                # Accepted 0-RTT: confirm and process early data.
                self.resumed = True
                self.transport.send(
                    pack_record(REC_FINISHED, b"resumed")
                )
                self._establish(chain)
                return
            if ticket:
                # An unacceptable ticket fails the connection: the
                # client already treated itself as established and sent
                # early data under the wrong authority.  (Clients check
                # coverage before offering, so only a certificate
                # rotation mid-session could land here.)
                self._fail("0-RTT ticket rejected")
                return
            # Full handshake: the whole server flight in one RTT.
            self.transport.send(
                pack_record(REC_CERT, serialize_chain(chain))
            )
            self.transport.send(pack_record(REC_FINISHED, b""))
            self._establish(chain)
        elif record_type == REC_FINISHED:
            pass  # client Finished; already established
        elif record_type == REC_ALERT:
            self._on_alert(payload)
        elif record_type == REC_APPDATA:
            if self.on_app_data is not None:
                self.on_app_data(payload)

    def _establish(self, chain: Sequence[Certificate]) -> None:
        if self.established:
            return
        self.established = True
        if self.ticket_manager is not None:
            self.transport.send(
                pack_record(
                    REC_TICKET,
                    self.ticket_manager.issue(chain).encode(),
                )
            )
        if self.on_established is not None:
            self.on_established()


class QuicClientSession(H2ClientSession):
    """One h3 client connection; everything above the handshake is the
    h2 session machinery (same streams, ORIGIN frames, 421 handling)."""

    def __init__(
        self,
        network: Network,
        client_host: Host,
        server_ip: str,
        quic_config: QuicClientConfig,
        origin_aware: bool = True,
        telemetry: Telemetry = NULL_TELEMETRY,
        page: str = "",
        stats=None,
    ) -> None:
        super().__init__(
            network, client_host, server_ip, quic_config,
            origin_aware=origin_aware, telemetry=telemetry, page=page,
        )
        #: The page pool's :class:`~repro.browser.pool.PoolStats`, which
        #: keeps the quic.* counts; ``None`` disables them.
        self.stats = stats

    @property
    def capabilities(self) -> SessionCapabilities:
        return SessionCapabilities(
            supports_origin_frame=self.origin_aware,
            max_streams=DEFAULT_MAX_STREAMS,
        )

    def connect(
        self,
        on_ready: Optional[Callable[[], None]] = None,
        on_failed: Optional[Callable[[str], None]] = None,
    ) -> None:
        if on_ready is not None:
            self._on_ready.append(on_ready)
        if on_failed is not None:
            self._on_failed.append(on_failed)
        now = self.network.loop.now
        self.connect_started_at = now()
        if self.tracer.enabled and self._conn_span is None:
            self._conn_span = self.tracer.begin(
                "quic.connection", category="quic",
                sni=self.tls_config.sni, ip=self.server_ip,
            )
        transport = self.network.connect_datagram(
            self.client_host,
            self.server_ip,
            HTTPS_PORT,
            on_refused=lambda error: self._fail(str(error)),
        )
        if transport is None:
            return
        # No transport handshake: the cryptographic handshake is the
        # only pre-request round trip (HAR "connect" is 0).
        self.tcp_connected_at = now()
        self.channel = QuicClientChannel(
            transport, self.tls_config, self.network.loop.schedule,
            self.telemetry,
        )
        self.channel.on_established = self._on_quic_established
        self.channel.on_failed = self._fail
        self.channel.on_app_data = self._on_app_data
        transport.on_close = self._on_transport_closed
        self.channel.start()

    def _on_quic_established(self) -> None:
        channel = self.channel
        if self.audit.enabled:
            if channel.resumed:
                self.audit.record(
                    "quic", ReasonCode.ZERO_RTT_RESUMED,
                    page=self.page, hostname=self.tls_config.sni,
                    cross_host=channel.cross_host,
                )
                if channel.cross_host:
                    self.audit.record(
                        "quic", ReasonCode.CROSS_HOST_TICKET,
                        page=self.page, hostname=self.tls_config.sni,
                        ticket_sni=channel.ticket_sni,
                    )
            else:
                self.audit.record(
                    "quic", ReasonCode.QUIC_HANDSHAKE_1RTT,
                    page=self.page, hostname=self.tls_config.sni,
                )
        stats = self.stats
        if stats is not None:
            # Round trips saved before the first request, against the
            # TCP+TLS1.3 floor of two (connect + handshake).
            if channel.resumed:
                stats.count_quic("quic.zero_rtt_resumptions")
                if channel.cross_host:
                    stats.count_quic("quic.cross_host_resumptions")
                stats.count_quic("quic.handshake_rtts_saved", 2)
            else:
                stats.count_quic("quic.handshakes_1rtt")
                stats.count_quic("quic.handshake_rtts_saved")
        self._on_tls_established()


class QuicServerConnection(ServerConnection):
    """Server-side state for one accepted QUIC flow (over a
    :class:`QuicServerChannel`); request handling is inherited from
    the TCP server connection unchanged."""

    #: h3 responses never advertise Alt-Svc (the client is already
    #: where Alt-Svc would point it).
    alt_svc_eligible = False


class QuicDialer:
    """Creates :class:`QuicClientSession` sessions (h3 over the
    simulated datagram network)."""

    name = "quic"

    def __init__(
        self,
        network: Network,
        client_host: Host,
        trust_store: TrustStore,
        authorities: Sequence[CertificateAuthority],
        ticket_cache: Optional[List[dict]] = None,
        origin_aware: bool = True,
        telemetry: Telemetry = NULL_TELEMETRY,
        page: str = "",
        stats=None,
    ) -> None:
        self.network = network
        self.client_host = client_host
        self.trust_store = trust_store
        self.authorities = authorities
        self.ticket_cache = ticket_cache if ticket_cache is not None \
            else []
        self.origin_aware = origin_aware
        self.telemetry = telemetry
        self.page = page
        #: The page pool's stats, handed to every session for its quic.*
        #: counts; ``None`` disables them.
        self.stats = stats

    def config(self, sni: str) -> QuicClientConfig:
        return QuicClientConfig(
            sni=sni,
            trust_store=self.trust_store,
            authorities=self.authorities,
            now=self.network.loop.now,
            ticket_cache=self.ticket_cache,
        )

    def has_ticket_for(self, hostname: str) -> bool:
        """Whether a cached ticket's certificate covers ``hostname``
        (the cross-host 0-RTT opportunity)."""
        return find_ticket(self.ticket_cache, hostname) is not None

    def dial(
        self, hostname: str, ip: str, tls13: Optional[bool] = None
    ) -> QuicClientSession:
        # ``tls13`` is accepted for interface parity and ignored: QUIC
        # is TLS 1.3 only.
        return QuicClientSession(
            self.network,
            self.client_host,
            ip,
            self.config(hostname),
            origin_aware=self.origin_aware,
            telemetry=self.telemetry,
            page=self.page,
            stats=self.stats,
        )
