"""Unit tests for the HTTP/1.1 text framing and protocols."""

import pytest
from hypothesis import given, strategies as st

from repro.h2.http1 import (
    H1ClientProtocol,
    H1ServerProtocol,
    build_request,
    build_response,
    parse_message,
)


class TestFraming:
    def test_request_roundtrip(self):
        wire = build_request("GET", "/path", [("host", "example.com"),
                                              ("referer", "https://r/")])
        message, rest = parse_message(wire)
        assert rest == b""
        assert message.start_line == "GET /path HTTP/1.1"
        assert ("host", "example.com") in message.headers
        assert ("referer", "https://r/") in message.headers

    def test_response_roundtrip(self):
        wire = build_response(200, [("content-type", "text/html")],
                              b"<html>")
        message, rest = parse_message(wire)
        assert rest == b""
        assert message.start_line.startswith("HTTP/1.1 200")
        assert message.body == b"<html>"

    def test_incomplete_head_buffers(self):
        wire = build_request("GET", "/", [("host", "a")])
        message, rest = parse_message(wire[:10])
        assert message is None
        assert rest == wire[:10]

    def test_incomplete_body_buffers(self):
        wire = build_response(200, [], b"0123456789")
        message, rest = parse_message(wire[:-3])
        assert message is None

    def test_pipelined_messages_split(self):
        wire = build_response(200, [], b"one") + \
            build_response(200, [], b"twotwo")
        first, rest = parse_message(wire)
        second, rest = parse_message(rest)
        assert first.body == b"one"
        assert second.body == b"twotwo"
        assert rest == b""

    def test_header_names_lowercased(self):
        wire = b"GET / HTTP/1.1\r\nHost: Example.COM\r\n\r\n"
        message, _ = parse_message(wire)
        assert ("host", "Example.COM") in message.headers

    @given(st.binary(max_size=300))
    def test_body_bytes_preserved(self, body):
        wire = build_response(200, [], body)
        message, rest = parse_message(wire)
        assert message.body == body
        assert rest == b""


class TestServerProtocol:
    def make(self):
        sent = []
        calls = []

        def handler(authority, path, headers):
            calls.append((authority, path))
            return 200, [("x-echo", path)], f"hello {authority}".encode()

        return H1ServerProtocol(sent.append, handler), sent, calls

    def test_serves_request(self):
        protocol, sent, calls = self.make()
        protocol.on_app_data(
            build_request("GET", "/a", [("host", "example.com")])
        )
        assert len(sent) == 1
        message, _ = parse_message(sent[0])
        assert message.body == b"hello example.com"
        assert calls == [("example.com", "/a")]

    def test_persistent_connection_serves_many(self):
        protocol, sent, calls = self.make()
        for path in ("/a", "/b", "/c"):
            protocol.on_app_data(
                build_request("GET", path, [("host", "example.com")])
            )
        assert len(sent) == 3
        assert [path for _, path in calls] == ["/a", "/b", "/c"]

    def test_fragmented_request_reassembled(self):
        protocol, sent, calls = self.make()
        wire = build_request("GET", "/a", [("host", "example.com")])
        protocol.on_app_data(wire[:7])
        assert sent == [] and calls == []
        protocol.on_app_data(wire[7:])
        assert len(sent) == 1

    def test_each_request_reaches_the_handler_once(self):
        protocol, _, calls = self.make()
        protocol.on_app_data(
            build_request("GET", "/", [("host", "x.com")])
            + build_request("GET", "/2", [("host", "y.com")])
        )
        assert calls == [("x.com", "/"), ("y.com", "/2")]


class TestClientProtocol:
    def make(self):
        sent = []
        clock = [0.0]
        protocol = H1ClientProtocol(sent.append, lambda: clock[0])
        return protocol, sent, clock

    def test_serial_queueing(self):
        protocol, sent, _ = self.make()
        responses = []
        protocol.request("a.com", "/1", responses.append)
        protocol.request("a.com", "/2", responses.append)
        # Only the first request is on the wire.
        assert len(sent) == 1
        assert protocol.busy
        protocol.on_app_data(build_response(200, [], b"one"))
        # Completion releases the second request.
        assert len(sent) == 2
        protocol.on_app_data(build_response(200, [], b"two"))
        assert [r.body for r in responses] == [b"one", b"two"]
        assert not protocol.busy

    def test_response_timestamps(self):
        protocol, sent, clock = self.make()
        responses = []
        protocol.request("a.com", "/1", responses.append)
        clock[0] = 50.0
        protocol.on_app_data(build_response(200, [], b"x"))
        assert responses[0].sent_at == 0.0
        assert responses[0].finished_at == 50.0

    def test_extra_headers_sent(self):
        protocol, sent, _ = self.make()
        protocol.request("a.com", "/1", lambda r: None,
                         extra_headers=(("referer", "https://p/"),))
        message, _ = parse_message(sent[0])
        assert ("referer", "https://p/") in message.headers

    def test_status_parsed(self):
        protocol, _, _ = self.make()
        responses = []
        protocol.request("a.com", "/missing", responses.append)
        protocol.on_app_data(build_response(404, [], b""))
        assert responses[0].status == 404
