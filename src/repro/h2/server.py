"""HTTP/2 origin server with ORIGIN frame support.

The deployable piece the paper notes did not exist in the wild: an
HTTP/2 server that advertises its origin set via ORIGIN frames (RFC
8336).  A :class:`ServerConfig` describes the certificates, hostnames,
origin sets, and content; :class:`H2Server` binds it to addresses on
the simulated network, terminates TLS, and answers requests -- with
``421 Misdirected Request`` for authorities it is not configured for
(RFC 7540 §9.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.h2 import events as ev
from repro.h2.connection import H2Connection, Role
from repro.h2.errors import ErrorCode, H2ConnectionError
from repro.h2.tls_channel import TlsChannel, TlsServerChannel
from repro.netsim.network import Host, Network
from repro.netsim.transport import Transport
from repro.telemetry import RegistryStats
from repro.tlspki.certificate import Certificate

Header = Tuple[str, str]

#: handler(authority, path, headers) -> (status, extra_headers, body)
RequestHandler = Callable[
    [str, str, List[Header]], Tuple[int, List[Header], bytes]
]


def default_handler(
    authority: str, path: str, headers: List[Header]
) -> Tuple[int, List[Header], bytes]:
    body = f"served {path} for {authority}".encode("utf-8")
    return 200, [("content-type", "text/plain")], body


@dataclass
class ServerConfig:
    """Behaviour of one logical origin server / CDN edge."""

    #: Certificate chains available, selected by SNI against the leaf SAN.
    chains: List[List[Certificate]] = field(default_factory=list)
    #: Hostnames this server will answer for (421 otherwise).  Entries
    #: may be wildcards (``*.example.com``).
    serves: List[str] = field(default_factory=list)
    #: Origin set to advertise per connection, keyed by SNI; the
    #: fallback key ``"*"`` applies to any SNI.
    origin_sets: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Master switch for ORIGIN frames (False = pre-deployment server).
    send_origin_frames: bool = True
    #: Protocols offered in ALPN, server-preference order.  A legacy
    #: origin advertises only ``("http/1.1",)``.
    alpn_protocols: Tuple[str, ...] = ("h2", "http/1.1")
    #: Hostnames (exact) whose virtual host is stuck on HTTP/1.1 even
    #: though the fleet supports h2 -- Table 3's 19% legacy share.
    h1_only_hosts: frozenset = frozenset()
    #: Server processing time per request ("wait"/TTFB component).
    think_time_ms: float = 0.0
    #: Issue TLS session tickets so repeat visitors resume (skipping
    #: certificate transmission and validation).
    enable_resumption: bool = True
    #: Advertised SETTINGS_MAX_CONCURRENT_STREAMS (None = protocol
    #: default, effectively unlimited).
    max_concurrent_streams: Optional[int] = None
    #: Capacity model: concurrent TLS connections this edge will carry
    #: (None = unlimited).  Over-capacity h2 clients are refused with
    #: GOAWAY ENHANCE_YOUR_CALM right after the handshake -- the
    #: handshake is still paid (the refusal has to be authenticated),
    #: which is exactly why overload shows up in handshake load.
    max_concurrent_connections: Optional[int] = None
    #: Whether this fleet also terminates h3 (QUIC).  When True the
    #: world binds a datagram listener next to the TCP one and TCP
    #: responses advertise ``Alt-Svc: h3`` -- but only to clients whose
    #: ALPN offer included h3, so h2-only traffic is byte-identical to
    #: a server without the flag.
    supports_h3: bool = False
    #: Secondary certificate chains (draft-ietf-httpbis-http2-
    #: secondary-certs, the §6.5 alternative) advertised per SNI;
    #: ``"*"`` applies to every connection.
    secondary_chains: Dict[str, List[List[Certificate]]] = field(
        default_factory=dict
    )
    handler: RequestHandler = default_handler

    def secondary_chains_for(self, sni: str) -> List[List[Certificate]]:
        if sni in self.secondary_chains:
            return self.secondary_chains[sni]
        return self.secondary_chains.get("*", [])

    def __post_init__(self) -> None:
        self._chain_index_size = -1
        self._chain_exact: Dict[str, List[Certificate]] = {}
        self._chain_wildcard: Dict[str, List[Certificate]] = {}

    def _reindex_chains(self) -> None:
        self._chain_exact.clear()
        self._chain_wildcard.clear()
        for chain in self.chains:
            if not chain:
                continue
            for name in chain[0].san:
                if name.startswith("*."):
                    self._chain_wildcard.setdefault(name[2:], chain)
                else:
                    self._chain_exact.setdefault(name, chain)
        self._chain_index_size = len(self.chains)

    def chain_for_sni(self, sni: str) -> Optional[List[Certificate]]:
        if self._chain_index_size != len(self.chains):
            self._reindex_chains()
        chain = self._chain_exact.get(sni)
        if chain is not None:
            return chain
        _, _, parent = sni.partition(".")
        return self._chain_wildcard.get(parent)

    def replace_chains(self, chains: List[List[Certificate]]) -> None:
        """Swap the certificate chains mid-run (rotation/expiry faults).

        The SNI index only rebuilds when the chain *count* changes, so
        an in-place swap must force it stale explicitly.
        """
        self.chains = list(chains)
        self._chain_index_size = -1

    def swap_chain(
        self, old_leaf: Certificate, new_chain: List[Certificate]
    ) -> None:
        """Serve ``new_chain`` in place of the chain presenting
        ``old_leaf`` (a reissue); appended when no chain presents it.
        The one place a reissued chain goes live: the SNI index is
        marked stale like :meth:`replace_chains` does."""
        for index, chain in enumerate(self.chains):
            if chain and chain[0].serial == old_leaf.serial \
                    and chain[0].subject == old_leaf.subject:
                self.chains[index] = new_chain
                break
        else:
            self.chains.append(new_chain)
        self._chain_index_size = -1

    def origin_set_for(self, sni: str) -> Tuple[str, ...]:
        if sni in self.origin_sets:
            return self.origin_sets[sni]
        return self.origin_sets.get("*", ())

    def is_authoritative_for(self, hostname: str) -> bool:
        """Whether ``serves`` names ``hostname`` or a one-level wildcard
        over it (RFC 6125 §6.4.3)."""
        _, _, parent = hostname.partition(".")
        return hostname in self.serves or "*." + parent in self.serves


class ServerStats(RegistryStats):
    """Counters the passive-measurement pipeline consumes."""

    _prefix = "server."
    _counters = (
        "tls_handshakes",
        "connections",
        "requests",
        "misdirected",
        "origin_frames_sent",
        "overload_goaways",
    )


class ServerConnection:
    """Server-side state for one accepted connection, over the TLS
    (or QUIC) server channel its listener built."""

    #: Whether responses on this connection may carry Alt-Svc; the
    #: QUIC subclass turns it off (its clients are already on h3).
    alt_svc_eligible = True
    #: Set by :meth:`H2Server._accept` when the edge was already at
    #: its connection-capacity limit; the handshake still completes,
    #: then the connection is refused with GOAWAY.
    refuse_overload = False

    def __init__(self, server: "H2Server", channel: TlsChannel) -> None:
        self.server = server
        self.channel = channel
        #: The server's accept count: no other TLS or QUIC connection
        #: to this server shares it.
        server.accepted += 1
        self.conn_id = server.accepted
        self.conn: Optional[H2Connection] = None
        self.h1: Optional["H1ServerProtocol"] = None
        self.sni = ""
        self.protocol = ""
        self.channel.on_established = self._on_tls_established
        self.channel.on_app_data = self._on_app_data
        #: The authority of each request, in arrival order -- raw
        #: material for the coalescing flag bit of paper §5.2 (a
        #: request's arrival index is its position plus one; its SNI
        #: is the connection's).
        self.request_log: List[str] = []

    def _on_tls_established(self) -> None:
        self.sni = self.channel.client_sni
        self.protocol = self.channel.negotiated_alpn or "h2"
        self.server.stats.tls_handshakes += 1
        self.server._notify_connection_event("handshake", self)
        if self.refuse_overload and self.protocol != "http/1.1":
            # Over capacity: complete the (already paid-for) handshake,
            # then turn the client away with a retryable GOAWAY.  h1
            # fallback connections are served normally -- they cannot
            # express a graceful connection-level refusal.
            self.conn = H2Connection(Role.SERVER)
            self.conn.initiate()
            self.refuse()
            return
        if self.protocol == "http/1.1":
            self._start_h1()
            return
        origin_set: Sequence[str] = ()
        if self.server.config.send_origin_frames:
            origin_set = self.server.config.origin_set_for(self.sni)
        secondaries = self.server.config.secondary_chains_for(self.sni)
        self.conn = H2Connection(
            Role.SERVER,
            origin_aware=self.server.config.send_origin_frames,
            origin_set=origin_set,
            secondary_certs_aware=bool(secondaries),
        )
        settings = []
        if self.server.config.max_concurrent_streams is not None:
            from repro.h2.settings import SettingId

            settings.append((
                int(SettingId.MAX_CONCURRENT_STREAMS),
                self.server.config.max_concurrent_streams,
            ))
        self.conn.initiate(settings=settings)
        if origin_set:
            self.server.stats.origin_frames_sent += 1
        if secondaries:
            from repro.h2.tls_channel import serialize_chain

            for cert_id, chain in enumerate(secondaries):
                self.conn.send_certificate(
                    cert_id & 0xFF, serialize_chain(chain)
                )
        self._flush()

    def refuse(self) -> None:
        """Turn the client away: GOAWAY ENHANCE_YOUR_CALM, then close.
        The one overload refusal -- the capacity limit sends it right
        after the handshake, a GOAWAY storm on established h2
        connections."""
        assert self.conn is not None
        self.server.stats.overload_goaways += 1
        self.conn.send_goaway(ErrorCode.ENHANCE_YOUR_CALM)
        self._flush()
        self.server._notify_connection_event("overload_goaway", self)
        self.channel.close()

    def release(self) -> None:
        """The transport closed, so nothing reaches this connection
        any more: drop its channel callbacks and its h1 protocol
        (whose handler refers back here), so the connection frees by
        reference counting."""
        self.channel.detach()
        self.h1 = None

    def _serve(
        self, authority: str, path: str, headers: List[Header]
    ) -> Tuple[int, List[Header], bytes]:
        """Log one request on this connection, then answer it."""
        self.request_log.append(authority)
        self.server.log_request(self, authority, len(self.request_log),
                                headers)
        return self.server.answer(authority, path, headers)

    def _start_h1(self) -> None:
        from repro.h2.http1 import H1ServerProtocol

        self.h1 = H1ServerProtocol(
            self.channel.send_app,
            self._serve,
            scheduler=self.server.network.loop.schedule,
            think_time_ms=self.server.config.think_time_ms,
        )

    def _on_app_data(self, data: bytes) -> None:
        if self.h1 is not None:
            self.h1.on_app_data(data)
            return
        if self.conn is None:
            return
        try:
            events = self.conn.receive_data(data)
        except H2ConnectionError:
            self._flush()
            self.channel.close()
            return
        for event in events:
            # Exact class: nearly every event here is a WindowUpdated
            # to discard, and RequestReceived has no subclasses.
            if event.__class__ is ev.RequestReceived:
                self._handle_request(event)
        self._flush()

    def _handle_request(self, event: ev.RequestReceived) -> None:
        headers = dict(event.headers)
        status, extra, body = self._serve(
            headers.get(":authority", ""), headers.get(":path", "/"),
            event.headers,
        )
        think = self.server.config.think_time_ms
        # A 421 goes out at once; an answered request waits the think
        # time (h1 waits it for every response).
        if think > 0 and status != 421:
            self.server.network.loop.schedule(
                think,
                lambda: self._respond_and_flush(
                    event.stream_id, status, extra, body
                ),
            )
        else:
            self._respond(event.stream_id, status, extra, body)

    def _respond_and_flush(
        self,
        stream_id: int,
        status: int,
        extra_headers: List[Header],
        body: bytes,
    ) -> None:
        if self.channel.transport.closed:
            return
        self._respond(stream_id, status, extra_headers, body)
        self._flush()

    def _respond(
        self,
        stream_id: int,
        status: int,
        extra_headers: List[Header],
        body: bytes,
    ) -> None:
        assert self.conn is not None
        response_headers = [(":status", str(status))]
        response_headers.extend(extra_headers)
        if (
            self.alt_svc_eligible
            and self.server.config.supports_h3
            and "h3" in getattr(self.channel, "client_offered_alpn", ())
        ):
            # RFC 7838: advertise the h3 endpoint, but only to clients
            # that offered h3 -- anyone else gets the exact bytes a
            # non-h3 server would send.
            response_headers.append(("alt-svc", 'h3=":443"; ma=86400'))
        response_headers.append(("content-length", str(len(body))))
        if body:
            self.conn.send_headers(stream_id, response_headers)
            self.conn.send_data(stream_id, body, end_stream=True)
        else:
            self.conn.send_headers(
                stream_id, response_headers, end_stream=True
            )

    def _flush(self) -> None:
        if self.conn is None or not self.channel.established:
            return
        data = self.conn.data_to_send()
        if data and not self.channel.transport.closed:
            self.channel.send_app(data)


class H2Server:
    """Binds a :class:`ServerConfig` to listening addresses."""

    def __init__(
        self,
        network: Network,
        host: Host,
        config: ServerConfig,
    ) -> None:
        self.network = network
        self.host = host
        self.config = config
        self.stats = ServerStats()
        from repro.h2.tls_channel import TicketManager

        self.ticket_manager = (
            TicketManager() if config.enable_resumption else None
        )
        #: QUIC session tickets (cross-hostname validity); created on
        #: the first :meth:`listen_quic` so h2-only servers carry no
        #: QUIC state at all.
        self.quic_ticket_manager = None
        #: Request subscribers, called in subscription order with
        #: (connection, authority, arrival_index, request_headers).
        #: Subscribe by appending, unsubscribe by removing your own
        #: entry; nobody assigns the list.
        self.request_observers: List[
            Callable[[ServerConnection, str, int, List[Header]], None]
        ] = []
        #: Connection-lifecycle subscribers, same contract, called with
        #: (event, connection), event one of ``accepted`` /
        #: ``handshake`` / ``overload_goaway`` / ``closed``.
        self.connection_observers: List[
            Callable[[str, ServerConnection], None]
        ] = []
        #: Live TLS connections by server-side transport, in accept
        #: order (QUIC flows stay out); the capacity model counts them
        #: and fault injection crashes, storms and attributes losses
        #: through them.
        self.live: Dict[Transport, ServerConnection] = {}
        #: TLS and QUIC connections accepted so far (numbers them).
        self.accepted = 0

    def listen(self, ip: str, port: int = 443) -> None:
        self.network.listen(self.host, ip, port, self._accept)

    def listen_all(self, port: int = 443) -> None:
        for ip in self.host.addresses:
            self.listen(ip, port)

    def listen_plain(self, ip: str, port: int = 80) -> None:
        """Serve cleartext HTTP/1.1 (no TLS) -- the 1.47% insecure
        requests of Table 3 need somewhere to go."""
        self.network.listen(self.host, ip, port, self._accept_plain)

    def listen_plain_all(self, port: int = 80) -> None:
        for ip in self.host.addresses:
            self.listen_plain(ip, port)

    def listen_quic(self, ip: str, port: int = 443) -> None:
        """Serve h3 on the datagram side of ``port``."""
        if self.quic_ticket_manager is None and \
                self.config.enable_resumption:
            from repro.transport.quicsim import QuicTicketManager

            self.quic_ticket_manager = QuicTicketManager()
        self.network.listen_datagram(self.host, ip, port,
                                     self._accept_quic)

    def listen_quic_all(self, port: int = 443) -> None:
        for ip in self.host.addresses:
            self.listen_quic(ip, port)

    def _alpn_for_sni(self, sni: str) -> Tuple[str, ...]:
        if sni in self.config.h1_only_hosts:
            return ("http/1.1",)
        return self.config.alpn_protocols

    def _accept(self, transport: Transport) -> None:
        self.stats.connections += 1
        connection = ServerConnection(self, TlsServerChannel(
            transport,
            self.config.chain_for_sni,
            supported_alpn=self._alpn_for_sni,
            ticket_manager=self.ticket_manager,
        ))
        limit = self.config.max_concurrent_connections
        connection.refuse_overload = (
            limit is not None and len(self.live) >= limit
        )
        self.live[transport] = connection
        transport.on_close = (
            lambda: self._connection_closed(connection)
        )
        self._notify_connection_event("accepted", connection)

    def _connection_closed(self, connection: ServerConnection) -> None:
        del self.live[connection.channel.transport]
        self._notify_connection_event("closed", connection)
        connection.release()

    def _notify_connection_event(
        self, event: str, connection: ServerConnection
    ) -> None:
        for observer in self.connection_observers:
            observer(event, connection)

    def _accept_quic(self, transport: Transport) -> None:
        from repro.transport.quicsim import (
            QuicServerChannel,
            QuicServerConnection,
        )

        self.stats.connections += 1
        connection = QuicServerConnection(self, QuicServerChannel(
            transport,
            self.config.chain_for_sni,
            supported_alpn=("h3",),
            ticket_manager=self.quic_ticket_manager,
        ))
        # h3 flows stay out of the connection count and its events.
        transport.on_close = connection.release

    def _accept_plain(self, transport: Transport) -> None:
        from repro.h2.http1 import H1ServerProtocol

        self.stats.connections += 1
        protocol = H1ServerProtocol(
            transport.send,
            self.answer,
            scheduler=self.network.loop.schedule,
            think_time_ms=self.config.think_time_ms,
        )
        transport.on_data = protocol.on_app_data

    def answer(
        self, authority: str, path: str, headers: List[Header]
    ) -> Tuple[int, List[Header], bytes]:
        """The response to one request, on any protocol: ``421`` for
        an authority this server is not configured for (RFC 7540
        §9.1.2), else the config's handler."""
        self.stats.requests += 1
        if not self.config.is_authoritative_for(authority):
            self.stats.misdirected += 1
            return 421, [], b""
        return self.config.handler(authority, path, headers)

    def log_request(
        self,
        connection: ServerConnection,
        authority: str,
        arrival_index: int,
        headers: Optional[List[Header]] = None,
    ) -> None:
        for observer in self.request_observers:
            observer(connection, authority, arrival_index, headers or [])
