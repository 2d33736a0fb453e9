"""HTTP/2 client session with ORIGIN-set tracking.

A :class:`H2ClientSession` owns one TLS+H2 connection: it connects,
performs the handshake, exchanges SETTINGS, surfaces the server's
ORIGIN frame (if any), and multiplexes requests.  The browser layer's
connection pool decides *which* session may serve a hostname; this
class only reports the facts a policy needs (certificate chain,
origin set, connected IP).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.audit.reasons import ReasonCode
from repro.h2 import events as ev
from repro.h2.connection import H2Connection, Role
from repro.h2.errors import ErrorCode, H2ConnectionError
from repro.h2.settings import SettingId
from repro.h2.tls_channel import TlsClientChannel, TlsClientConfig
from repro.netsim.network import Host, Network
from repro.netsim.transport import Transport
from repro.obs.phases import observe_handshake
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.tlspki.certificate import Certificate
from repro.transport.base import DEFAULT_MAX_STREAMS, SessionCapabilities

Header = Tuple[str, str]

#: Every session dials the HTTPS port (TCP for h2, datagrams for h3).
HTTPS_PORT = 443

#: The receive windows of the measured browser (DESIGN.md §7):
#: Chromium's ``kSpdyStreamMaxRecvWindowSize``, advertised as
#: SETTINGS_INITIAL_WINDOW_SIZE, and ``kSpdySessionMaxRecvWindowSize``,
#: reached by a stream-0 WINDOW_UPDATE, both in the first flight.
STREAM_RECV_WINDOW = 6 * 1024 * 1024
SESSION_RECV_WINDOW = 15 * 1024 * 1024

#: The stable request-prefix headers, interned per method so every
#: request reuses the same tuples (their HPACK encodings are memoized
#: static-table hits).
_REQUEST_PREFIX: Dict[str, Tuple[Header, Header]] = {}


@dataclass
class H2Response:
    """A fully received response, with the timestamps HAR entries need."""

    stream_id: int
    status: int
    headers: List[Header]
    body: bytes
    authority: str
    path: str
    sent_at: float = 0.0
    headers_at: float = 0.0
    finished_at: float = 0.0


@dataclass
class PendingRequest:
    authority: str
    path: str
    callback: Callable[[H2Response], None]
    headers: List[Header] = field(default_factory=list)
    #: DATA payloads in arrival order, joined once when the stream ends.
    chunks: List[bytes] = field(default_factory=list)
    status: int = 0
    sent_at: float = 0.0
    headers_at: float = 0.0


class H2ClientSession:
    """One client connection to one server IP (the ``tcp-tls``
    transport's session)."""

    def __init__(
        self,
        network: Network,
        client_host: Host,
        server_ip: str,
        tls_config: TlsClientConfig,
        origin_aware: bool = True,
        secondary_certs: bool = False,
        telemetry: Telemetry = NULL_TELEMETRY,
        page: str = "",
    ) -> None:
        self.network = network
        self.client_host = client_host
        self.server_ip = server_ip
        self.tls_config = tls_config
        self.origin_aware = origin_aware
        self.secondary_certs = secondary_certs
        #: Validated secondary chains (draft-ietf-httpbis-http2-
        #: secondary-certs); they extend this connection's authority.
        self.secondary_chains: List[List[Certificate]] = []
        self.on_secondary_certificate: Optional[
            Callable[[Certificate], None]
        ] = None
        self.conn: Optional[H2Connection] = None
        self.channel: Optional[TlsClientChannel] = None
        self.server_chain: List[Certificate] = []
        self.ready = False
        self.failed: Optional[str] = None
        self.closed = False
        self.connect_started_at: Optional[float] = None
        self.tcp_connected_at: Optional[float] = None
        self.connected_at: Optional[float] = None
        self._pending: Dict[int, PendingRequest] = {}
        #: Requests waiting for a stream slot (MAX_CONCURRENT_STREAMS).
        self._stream_queue: List[tuple] = []
        self._h1 = None  # ALPN fallback protocol, set post-handshake
        self.negotiated_protocol: str = ""
        self._on_ready: List[Callable[[], None]] = []
        self._on_failed: List[Callable[[str], None]] = []
        self.on_origin_received: Optional[
            Callable[[Tuple[str, ...]], None]
        ] = None
        self.telemetry = telemetry
        self.tracer = telemetry.tracer
        self.audit = telemetry.audit
        self.page = page
        self._conn_span = None
        self._stream_spans: Dict[int, object] = {}
        phases = telemetry.phases
        if phases.enabled:
            # The first ready callback, so it never perturbs the ones
            # the pool and engine register.
            self._on_ready.append(lambda: observe_handshake(phases, self))

    # -- lifecycle ----------------------------------------------------------

    def connect(
        self,
        on_ready: Optional[Callable[[], None]] = None,
        on_failed: Optional[Callable[[str], None]] = None,
    ) -> None:
        if on_ready is not None:
            self._on_ready.append(on_ready)
        if on_failed is not None:
            self._on_failed.append(on_failed)
        self.connect_started_at = self.network.loop.now()
        if self.tracer.enabled and self._conn_span is None:
            self._conn_span = self.tracer.begin(
                "h2.connection", category="h2",
                sni=self.tls_config.sni, ip=self.server_ip,
            )
        self.network.connect(
            self.client_host,
            self.server_ip,
            HTTPS_PORT,
            self._on_tcp_connected,
            on_refused=lambda error: self._fail(str(error)),
        )

    def _on_tcp_connected(self, transport: Transport) -> None:
        self.tcp_connected_at = self.network.loop.now()
        self.channel = TlsClientChannel(transport, self.tls_config,
                                        self.telemetry)
        self.channel.on_established = self._on_tls_established
        self.channel.on_failed = self._fail
        self.channel.on_app_data = self._on_app_data
        transport.on_close = self._on_transport_closed
        self.channel.start()

    def _on_tls_established(self) -> None:
        assert self.channel is not None
        self.server_chain = self.channel.server_chain
        negotiated = self.channel.negotiated_alpn
        if not negotiated:
            # The handshake produced no ALPN result at all (empty
            # offer): assuming h2 is RFC 7540 prior knowledge, not a
            # negotiation -- record it instead of masking it.
            negotiated = "h2"
            if self.audit.enabled:
                self.audit.record(
                    "tls", ReasonCode.TLS_ALPN_FALLBACK,
                    page=self.page, hostname=self.tls_config.sni,
                    assumed=negotiated,
                )
        self.negotiated_protocol = negotiated
        if self.negotiated_protocol == "http/1.1":
            # ALPN fallback: speak serial HTTP/1.1 on this channel.
            from repro.h2.http1 import H1ClientProtocol

            self._h1 = H1ClientProtocol(
                self.channel.send_app, self.network.loop.now
            )
            self.channel.on_app_data = self._h1.on_app_data
        else:
            self.conn = H2Connection(
                Role.CLIENT,
                origin_aware=self.origin_aware,
                secondary_certs_aware=self.secondary_certs,
            )
            self.conn.initiate(settings=(
                (SettingId.INITIAL_WINDOW_SIZE, STREAM_RECV_WINDOW),
            ))
            self.conn.send_window_update(
                0, SESSION_RECV_WINDOW - self.conn.connection_recv_window
            )
        self.connected_at = self.network.loop.now()
        if self._conn_span is not None:
            # Record the phase boundaries now; the span itself stays
            # open until the connection closes or fails.
            self._conn_span.attrs.update(
                tcp_ms=self.tcp_connected_at - self.connect_started_at,
                tls_ms=self.connected_at - self.tcp_connected_at,
                protocol=self.negotiated_protocol,
            )
        self.ready = True
        self._flush()
        for callback in self._on_ready:
            callback()
        self._on_ready.clear()

    def _on_transport_closed(self) -> None:
        self.closed = True
        if not self.ready and self.failed is None:
            self._fail("connection closed during handshake")
        else:
            self._fail_outstanding()
        # Nothing fires after this: drop every callback cycle (the
        # ready list is already empty -- it ran, or ``_fail`` cleared
        # it).
        self.channel.detach()
        self._on_failed.clear()

    def _fail_outstanding(self) -> None:
        """The connection died mid-flight (e.g. an on-path middlebox
        tore it down, §6.7): surface the reset to every outstanding
        request as a status-0 response."""
        self._end_conn_span(closed="transport")
        if self._h1 is not None:
            # ALPN fell back to HTTP/1.1: the serial queue lives in the
            # fallback protocol, which surfaces its own dead responses.
            self._h1.fail_all()
            return
        pending = list(self._pending.items())
        self._pending.clear()
        for stream_id, request in pending:
            self._kill(stream_id, request)
        # Requests still queued behind the peer's concurrent-stream cap
        # were never sent; they die with the connection too.  Without
        # this, a mid-flight teardown leaves their callbacks unfired
        # and the page load waits forever.
        queued, self._stream_queue = self._stream_queue, []
        now = self.network.loop.now()
        for authority, path, callback, _method, _extra in queued:
            callback(self._dead_response(-1, authority, path, now))

    def _dead_response(
        self, stream_id: int, authority: str, path: str, sent_at: float
    ) -> H2Response:
        """The status-0 response a request gets when its stream or its
        connection dies under it."""
        return H2Response(
            stream_id=stream_id,
            status=0,
            headers=[],
            body=b"",
            authority=authority,
            path=path,
            sent_at=sent_at,
            headers_at=sent_at,
            finished_at=self.network.loop.now(),
        )

    def _kill(self, stream_id: int, request: PendingRequest) -> None:
        """Finish a sent request, already out of ``_pending``, as dead."""
        self._end_stream_span(stream_id, status=0)
        request.callback(
            self._dead_response(
                stream_id, request.authority, request.path, request.sent_at
            )
        )

    def _fail(self, reason: str) -> None:
        if self.failed is not None:
            return
        self.failed = reason
        self.closed = True
        self._end_conn_span(failed=reason)
        for callback in self._on_failed:
            callback(reason)
        # A failed session never becomes ready: drop both lists.
        self._on_failed.clear()
        self._on_ready.clear()

    def _end_conn_span(self, **attrs) -> None:
        if self._conn_span is not None and not self._conn_span.finished:
            self.tracer.end(self._conn_span, **attrs)

    def _end_stream_span(self, stream_id: int, **attrs) -> None:
        span = self._stream_spans.pop(stream_id, None)
        if span is not None:
            self.tracer.end(span, **attrs)

    def close(self) -> None:
        if self.conn is not None and not self.closed:
            self.conn.send_goaway(ErrorCode.NO_ERROR)
            self._flush()
        if self.channel is not None:
            self.channel.close()
        self.closed = True
        self._end_conn_span(closed="client")

    def when_ready(
        self,
        on_ready: Callable[[], None],
        on_failed: Optional[Callable[[str], None]] = None,
    ) -> None:
        """Run ``on_ready`` now if established, else once it is."""
        if self.ready:
            self.network.loop.schedule(0.0, on_ready)
        elif self.failed is not None:
            if on_failed is not None:
                failure = self.failed
                self.network.loop.schedule(0.0, lambda: on_failed(failure))
        else:
            self._on_ready.append(on_ready)
            if on_failed is not None:
                self._on_failed.append(on_failed)

    # -- facts for coalescing policies -----------------------------------------

    @property
    def capabilities(self) -> SessionCapabilities:
        """The capability record pool lookups key on; reflects the
        negotiated protocol once the handshake settles."""
        if self._h1 is not None:
            return SessionCapabilities(max_streams=1)
        return SessionCapabilities(
            supports_origin_frame=self.origin_aware,
            max_streams=DEFAULT_MAX_STREAMS,
        )

    @property
    def h1_busy(self) -> bool:
        return self._h1 is not None and self._h1.busy

    @property
    def leaf_certificate(self) -> Optional[Certificate]:
        return self.server_chain[0] if self.server_chain else None

    @property
    def origin_set(self) -> frozenset:
        if self.conn is None:
            return frozenset()
        return frozenset(self.conn.remote_origin_set)

    def certificate_covers(self, hostname: str) -> bool:
        leaf = self.leaf_certificate
        if leaf is not None and leaf.covers(hostname):
            return True
        return any(
            chain[0].covers(hostname)
            for chain in self.secondary_chains if chain
        )

    def origin_set_covers(self, hostname: str) -> bool:
        origins = self.origin_set
        return (
            f"https://{hostname}" in origins
            or f"https://{hostname}:443" in origins
            or hostname in origins
        )

    # -- requests -----------------------------------------------------------

    def request(
        self,
        authority: str,
        path: str,
        callback: Callable[[H2Response], None],
        method: str = "GET",
        extra_headers: Sequence[Header] = (),
    ) -> int:
        """Issue a request on this connection; returns the stream id."""
        if not self.ready:
            raise H2ConnectionError(
                ErrorCode.INTERNAL_ERROR, "session not ready"
            )
        if self._h1 is not None:
            if self.tracer.enabled:
                span = self.tracer.begin(
                    "h2.stream", category="h2", parent=self._conn_span,
                    authority=authority, path=path, protocol="http/1.1",
                )
                inner = callback

                def traced(response: H2Response) -> None:
                    self.tracer.end(span, status=response.status)
                    inner(response)

                callback = traced
            self._h1.request(authority, path, callback,
                             tuple(extra_headers))
            return 0
        if self.conn is None:
            raise H2ConnectionError(
                ErrorCode.INTERNAL_ERROR, "session not ready"
            )
        if len(self._pending) >= \
                self.conn.remote_settings.max_concurrent_streams:
            # The peer capped concurrent streams: queue like a browser.
            self._stream_queue.append(
                (authority, path, callback, method, tuple(extra_headers))
            )
            return -1
        stream_id = self.conn.get_next_stream_id()
        prefix = _REQUEST_PREFIX.get(method)
        if prefix is None:
            prefix = _REQUEST_PREFIX[method] = (
                (":method", method), (":scheme", "https"),
            )
        headers: List[Header] = [
            *prefix,
            (":authority", authority),
            (":path", path),
        ]
        headers.extend(extra_headers)
        self._pending[stream_id] = PendingRequest(
            authority=authority, path=path, callback=callback,
            sent_at=self.network.loop.now(),
        )
        if self.tracer.enabled:
            self._stream_spans[stream_id] = self.tracer.begin(
                "h2.stream", category="h2", parent=self._conn_span,
                authority=authority, path=path, stream_id=stream_id,
            )
        self.conn.send_headers(stream_id, headers, end_stream=True)
        self._flush()
        return stream_id

    def _drain_stream_queue(self) -> None:
        while self._stream_queue and self.conn is not None and len(
            self._pending
        ) < self.conn.remote_settings.max_concurrent_streams:
            authority, path, callback, method, extra = \
                self._stream_queue.pop(0)
            self.request(authority, path, callback, method=method,
                         extra_headers=extra)

    # -- plumbing ------------------------------------------------------------

    def _on_app_data(self, data: bytes) -> None:
        if self.conn is None:
            return
        try:
            events = self.conn.receive_data(data)
        except H2ConnectionError as error:
            self._flush()
            self._fail(str(error))
            return
        pending = self._pending
        for event in events:
            kind = event.__class__
            if kind is ev.DataReceived:
                # The body path: one chunk per DATA frame, no handler.
                request = pending.get(event.stream_id)
                if request is not None:
                    request.chunks.append(event.data)
                continue
            handler = _EVENT_DISPATCH.get(kind)
            if handler is not None:
                handler(self, event)
        self._flush()

    def _on_response_received(self, event: "ev.ResponseReceived") -> None:
        pending = self._pending.get(event.stream_id)
        if pending is not None:
            pending.headers = event.headers
            pending.headers_at = self.network.loop.now()
            for name, value in event.headers:
                if name == ":status":
                    pending.status = int(value)

    def _on_stream_ended(self, event: "ev.StreamEnded") -> None:
        self._complete(event.stream_id)

    def _on_stream_reset(self, event: "ev.StreamReset") -> None:
        # Reset by the peer's RST_STREAM or by our own stream error:
        # either way no StreamEnded will follow.
        pending = self._pending.pop(event.stream_id, None)
        if pending is not None:
            self._kill(event.stream_id, pending)
            self._drain_stream_queue()

    def _on_origin_received(self, event: "ev.OriginReceived") -> None:
        if self.tracer.enabled:
            self.tracer.instant(
                "h2.origin_frame", category="h2",
                parent=self._conn_span, sni=self.tls_config.sni,
                origins=list(event.origins),
            )
        if self.audit.enabled:
            self.audit.record(
                "h2", ReasonCode.H2_ORIGIN_FRAME_RECEIVED,
                page=self.page, hostname=self.tls_config.sni,
                origins=len(event.origins),
            )
        if self.on_origin_received is not None:
            self.on_origin_received(event.origins)

    def _on_secondary_certificate(
        self, event: "ev.SecondaryCertificateReceived"
    ) -> None:
        self._accept_secondary_certificate(event.chain_data)

    def _on_goaway_received(self, event: "ev.GoAwayReceived") -> None:
        if event.error_code is not ErrorCode.NO_ERROR:
            if self.audit.enabled:
                self.audit.record(
                    "h2", ReasonCode.H2_GOAWAY,
                    page=self.page, hostname=self.tls_config.sni,
                    error_code=event.error_code.name,
                )
            self._fail(f"GOAWAY: {event.error_code.name}")

    def _accept_secondary_certificate(self, chain_data: bytes) -> None:
        """Validate and adopt a secondary chain; bad chains are
        silently discarded (they confer no authority)."""
        from repro.h2.tls_channel import deserialize_chain
        from repro.tlspki.validation import validate_chain

        try:
            chain = deserialize_chain(chain_data)
        except (ValueError, KeyError):
            return
        if not chain:
            return
        result = validate_chain(
            chain,
            chain[0].subject,
            self.tls_config.now(),
            self.tls_config.trust_store,
            self.tls_config.authorities,
        )
        if not result.ok:
            return
        self.secondary_chains.append(chain)
        if self.on_secondary_certificate is not None:
            self.on_secondary_certificate(chain[0])

    def _complete(self, stream_id: int) -> None:
        pending = self._pending.pop(stream_id, None)
        if pending is None:
            return
        response = H2Response(
            stream_id=stream_id,
            status=pending.status,
            headers=pending.headers,
            body=b"".join(pending.chunks),
            authority=pending.authority,
            path=pending.path,
            sent_at=pending.sent_at,
            headers_at=pending.headers_at or pending.sent_at,
            finished_at=self.network.loop.now(),
        )
        self._end_stream_span(stream_id, status=response.status)
        if response.status == 421 and self.audit.enabled:
            self.audit.record(
                "h2", ReasonCode.H2_MISDIRECTED_421,
                page=self.page, hostname=response.authority,
                path=response.path, sni=self.tls_config.sni,
            )
        pending.callback(response)
        self._drain_stream_queue()

    def _flush(self) -> None:
        if self.conn is None or self.channel is None:
            return
        if not self.channel.established or self.channel.transport.closed:
            return
        data = self.conn.data_to_send()
        if data:
            self.channel.send_app(data)


#: Exact-type event dispatch (the connection emits no subclasses);
#: events without an entry are ignored.  ``DataReceived`` is absent:
#: ``_on_app_data`` appends its chunk itself.
_EVENT_DISPATCH = {
    ev.ResponseReceived: H2ClientSession._on_response_received,
    ev.StreamEnded: H2ClientSession._on_stream_ended,
    ev.StreamReset: H2ClientSession._on_stream_reset,
    ev.OriginReceived: H2ClientSession._on_origin_received,
    ev.SecondaryCertificateReceived:
        H2ClientSession._on_secondary_certificate,
    ev.GoAwayReceived: H2ClientSession._on_goaway_received,
}
