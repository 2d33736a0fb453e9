"""Minimal HTTP/1.1 support for ALPN fallback.

Roughly a fifth of the paper dataset's requests were still HTTP/1.1
(Table 3), and HTTP/1.1 connections cannot coalesce across hostnames,
so the crawler needs servers and clients that genuinely negotiate and
speak it.  This module provides text-framed request/response handling
over the simulated TLS channel: persistent connections, serial
request/response, ``Content-Length`` bodies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Tuple
from collections import deque

from repro.h2.client import H2Response

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
        scheduler: Optional[Callable[[float, Callable[[], None]],
                                     object]] = None,
        think_time_ms: float = 0.0,
    ) -> None:
        self._send = send
        self._handler = handler
        self._scheduler = scheduler
        self._think_time_ms = think_time_ms
        self._buffer = b""

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

    Serial request/response with a queue; the ALPN fallback inside
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

