"""Minimal HTTP/1.1 support for ALPN fallback.

Roughly a fifth of the paper dataset's requests were still HTTP/1.1
(Table 3), and HTTP/1.1 connections cannot coalesce across hostnames,
so the crawler needs servers and clients that genuinely negotiate and
speak it.  This module provides text-framed request/response handling
over the simulated TLS channel: persistent connections, serial
request/response, ``Content-Length`` bodies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Tuple
from collections import deque

from repro.h2.client import H2Response
from repro.h2.tls_channel import TlsClientChannel, TlsClientConfig
from repro.netsim.network import Host, Network
from repro.netsim.transport import Transport

Header = Tuple[str, str]


def build_request(method: str, path: str, headers: List[Header]) -> bytes:
    lines = [f"{method} {path} HTTP/1.1"]
    lines.extend(f"{name}: {value}" for name, value in headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def build_response(status: int, headers: List[Header], body: bytes) -> bytes:
    reason = {200: "OK", 404: "Not Found", 421: "Misdirected Request"}.get(
        status, "Status"
    )
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines.extend(f"{name}: {value}" for name, value in headers)
    lines.append(f"content-length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


@dataclass
class ParsedMessage:
    start_line: str
    headers: List[Header]
    body: bytes


def parse_message(buffer: bytes) -> Tuple[Optional[ParsedMessage], bytes]:
    """Parse one complete message (head + Content-Length body)."""
    head_end = buffer.find(b"\r\n\r\n")
    if head_end < 0:
        return None, buffer
    head = buffer[:head_end].decode("latin-1")
    lines = head.split("\r\n")
    start_line = lines[0]
    headers: List[Header] = []
    content_length = 0
    for line in lines[1:]:
        if ":" not in line:
            continue
        name, value = line.split(":", 1)
        name = name.strip().lower()
        value = value.strip()
        headers.append((name, value))
        if name == "content-length":
            content_length = int(value)
    body_start = head_end + 4
    if len(buffer) < body_start + content_length:
        return None, buffer
    body = buffer[body_start : body_start + content_length]
    return (
        ParsedMessage(start_line=start_line, headers=headers, body=body),
        buffer[body_start + content_length :],
    )


class H1ServerProtocol:
    """Server-side HTTP/1.1 handling over an established TLS channel.

    ``handler(authority, path, headers) -> (status, headers, body)`` is
    the same signature as the HTTP/2 server's.
    """

    def __init__(
        self,
        send: Callable[[bytes], None],
        handler: Callable[[str, str, List[Header]],
                          Tuple[int, List[Header], bytes]],
        on_request: Optional[Callable[[str, int], None]] = None,
        scheduler: Optional[Callable[[float, Callable[[], None]],
                                     object]] = None,
        think_time_ms: float = 0.0,
    ) -> None:
        self._send = send
        self._handler = handler
        self._on_request = on_request
        self._scheduler = scheduler
        self._think_time_ms = think_time_ms
        self._buffer = b""
        self.requests_served = 0

    def on_app_data(self, data: bytes) -> None:
        self._buffer += data
        while True:
            message, self._buffer = parse_message(self._buffer)
            if message is None:
                return
            self._serve(message)

    def _serve(self, message: ParsedMessage) -> None:
        parts = message.start_line.split(" ")
        path = parts[1] if len(parts) > 1 else "/"
        authority = dict(message.headers).get("host", "")
        self.requests_served += 1
        if self._on_request is not None:
            self._on_request(authority, self.requests_served)
        status, headers, body = self._handler(
            authority, path, message.headers
        )
        response = build_response(status, headers, body)
        if self._scheduler is not None and self._think_time_ms > 0:
            self._scheduler(self._think_time_ms,
                            lambda: self._send(response))
        else:
            self._send(response)


@dataclass
class _QueuedRequest:
    authority: str
    path: str
    callback: Callable[[H2Response], None]
    extra_headers: Tuple[Header, ...] = ()
    sent_at: float = 0.0


class H1ClientProtocol:
    """Client-side HTTP/1.1 over an already-established channel.

    Serial request/response with a queue; used directly by
    :class:`H1ClientSession` and as the ALPN fallback inside
    :class:`~repro.h2.client.H2ClientSession`.
    """

    def __init__(
        self, send: Callable[[bytes], None], now: Callable[[], float]
    ) -> None:
        self._send = send
        self._now = now
        self._queue: Deque[_QueuedRequest] = deque()
        self._in_flight: Optional[_QueuedRequest] = None
        self._buffer = b""
        self._headers_at = 0.0

    @property
    def busy(self) -> bool:
        return self._in_flight is not None or bool(self._queue)

    def request(
        self,
        authority: str,
        path: str,
        callback: Callable[[H2Response], None],
        extra_headers: Tuple[Header, ...] = (),
    ) -> None:
        self._queue.append(
            _QueuedRequest(authority=authority, path=path,
                           callback=callback,
                           extra_headers=tuple(extra_headers))
        )
        self.pump()

    def pump(self) -> None:
        if self._in_flight is not None or not self._queue:
            return
        request = self._queue.popleft()
        request.sent_at = self._now()
        self._in_flight = request
        self._headers_at = 0.0
        headers = [("host", request.authority)]
        headers.extend(request.extra_headers)
        self._send(build_request("GET", request.path, headers))

    def on_app_data(self, data: bytes) -> None:
        if self._in_flight is None:
            return
        if not self._buffer and self._headers_at == 0.0:
            self._headers_at = self._now()
        self._buffer += data
        message, self._buffer = parse_message(self._buffer)
        if message is None:
            return
        request = self._in_flight
        self._in_flight = None
        status = int(message.start_line.split(" ")[1])
        response = H2Response(
            stream_id=0,
            status=status,
            headers=message.headers,
            body=message.body,
            authority=request.authority,
            path=request.path,
            sent_at=request.sent_at,
            headers_at=self._headers_at or request.sent_at,
            finished_at=self._now(),
        )
        request.callback(response)
        self.pump()

    def fail_all(self) -> None:
        """The connection died under us: surface the in-flight request
        and everything queued behind it as status-0 responses (the
        dead-response contract the H2 session uses), so no fetch waits
        forever on a torn-down connection."""
        dead: List[_QueuedRequest] = []
        if self._in_flight is not None:
            dead.append(self._in_flight)
            self._in_flight = None
        dead.extend(self._queue)
        self._queue.clear()
        self._buffer = b""
        now = self._now()
        for request in dead:
            request.callback(
                H2Response(
                    stream_id=0,
                    status=0,
                    headers=[],
                    body=b"",
                    authority=request.authority,
                    path=request.path,
                    sent_at=request.sent_at or now,
                    headers_at=request.sent_at or now,
                    finished_at=now,
                )
            )


class H1ClientSession:
    """A serial HTTP/1.1 client connection.

    API-compatible with :class:`~repro.h2.client.H2ClientSession` for
    the parts the browser engine touches; requests queue and run one at
    a time (no multiplexing), which is exactly why HTTP/1.1 pushed the
    web toward domain sharding in the first place (paper §1).
    """

    can_multiplex = False

    def __init__(
        self,
        network: Network,
        client_host: Host,
        server_ip: str,
        tls_config: TlsClientConfig,
        port: int = 443,
    ) -> None:
        self.network = network
        self.client_host = client_host
        self.server_ip = server_ip
        self.port = port
        self.tls_config = tls_config
        self.channel: Optional[TlsClientChannel] = None
        self.ready = False
        self.failed: Optional[str] = None
        self.closed = False
        self.connect_started_at: Optional[float] = None
        self.tcp_connected_at: Optional[float] = None
        self.connected_at: Optional[float] = None
        self._protocol: Optional[H1ClientProtocol] = None
        self._on_ready: List[Callable[[], None]] = []
        self._on_failed: List[Callable[[str], None]] = []
        self.server_chain: List = []

    # -- facts mirroring H2ClientSession --------------------------------------

    @property
    def leaf_certificate(self):
        return self.server_chain[0] if self.server_chain else None

    @property
    def origin_set(self) -> frozenset:
        return frozenset()  # HTTP/1.1 has no ORIGIN frame

    def certificate_covers(self, hostname: str) -> bool:
        leaf = self.leaf_certificate
        return leaf is not None and leaf.covers(hostname)

    def origin_set_covers(self, hostname: str) -> bool:
        return False

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
        self.network.connect(
            self.client_host,
            self.server_ip,
            self.port,
            self._on_tcp_connected,
            on_refused=lambda error: self._fail(str(error)),
        )

    def _on_tcp_connected(self, transport: Transport) -> None:
        self.tcp_connected_at = self.network.loop.now()
        self.channel = TlsClientChannel(transport, self.tls_config)
        self.channel.on_established = self._on_tls_established
        self.channel.on_failed = self._fail
        self.channel.on_app_data = self._on_app_data
        transport.on_close = self._on_transport_closed
        self.channel.start()

    def _on_transport_closed(self) -> None:
        self.closed = True
        if not self.ready and self.failed is None:
            self._fail("connection closed during handshake")
            return
        if self._protocol is not None:
            self._protocol.fail_all()

    def _on_tls_established(self) -> None:
        assert self.channel is not None
        self.server_chain = self.channel.server_chain
        self.connected_at = self.network.loop.now()
        self._protocol = H1ClientProtocol(
            self.channel.send_app, self.network.loop.now
        )
        self.channel.on_app_data = self._protocol.on_app_data
        self.ready = True
        for callback in self._on_ready:
            callback()
        self._on_ready.clear()
        self._protocol.pump()

    def _fail(self, reason: str) -> None:
        if self.failed is not None:
            return
        self.failed = reason
        self.closed = True
        for callback in self._on_failed:
            callback(reason)
        self._on_failed.clear()

    def close(self) -> None:
        if self.channel is not None:
            self.channel.close()
        self.closed = True

    # -- requests ------------------------------------------------------------

    @property
    def busy(self) -> bool:
        return self._protocol is not None and self._protocol.busy

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

    def request(
        self,
        authority: str,
        path: str,
        callback: Callable[[H2Response], None],
        method: str = "GET",
        extra_headers=(),
    ) -> int:
        if self._protocol is None:
            raise RuntimeError("H1 session not ready")
        self._protocol.request(authority, path, callback,
                               tuple(extra_headers))
        return 0
