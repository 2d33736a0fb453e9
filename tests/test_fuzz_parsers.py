"""Fuzz/property tests: parsers must never crash unexpectedly.

Wire parsers face attacker-controlled bytes; the only acceptable
failure mode is the protocol's own error type.  Hypothesis drives
random and structured-mutation inputs through the HTTP/2 frame parser
(:meth:`H2Connection.receive_data`), the HPACK decoder, the TLS record
layer, and the HTTP/1.1 message parser.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.h2 import (
    H2Connection,
    H2ConnectionError,
    HpackDecoder,
    HpackError,
    Role,
)
from repro.h2 import events as ev
from repro.h2.http1 import parse_message
from repro.h2.tls_channel import parse_records
from tests.h2_reference_frames import (
    FLAG_END_HEADERS,
    HEADER_STRUCT,
    TYPE_CERTIFICATE,
    TYPE_GOAWAY,
    TYPE_PING,
    TYPE_PRIORITY,
    TYPE_PUSH_PROMISE,
    TYPE_RST_STREAM,
    TYPE_SETTINGS,
    TYPE_WINDOW_UPDATE,
    DataFrame,
    GoAwayFrame,
    HeadersFrame,
    OriginFrame,
    PingFrame,
    SettingsFrame,
    parse_frames,
)

_REQUEST = [(":method", "GET"), (":scheme", "https"),
            (":authority", "fuzz.example"), (":path", "/")]


def endpoint(role=Role.CLIENT, continuation_pending=False):
    """A connection past its preface and SETTINGS with stream 1 open;
    optionally a HEADERS block on it awaits its CONTINUATION."""
    client = H2Connection(Role.CLIENT)
    client.initiate()
    client.send_headers(1, _REQUEST)
    conn = client
    if role is Role.SERVER:
        conn = H2Connection(Role.SERVER)
        conn.initiate()
        conn.receive_data(client.data_to_send())
    conn.data_to_send()
    if continuation_pending:
        conn.receive_data(HeadersFrame(stream_id=1,
                                       header_block=b"\x82").serialize())
    return conn


def receive_or_refuse(conn, data):
    """Feed ``data``; only the protocol's own error may escape, and
    then with a GOAWAY queued for the peer.  Returns the events, or
    None if the connection failed."""
    try:
        return conn.receive_data(data)
    except H2ConnectionError as error:
        frames, _ = parse_frames(conn.data_to_send())
        assert frames and isinstance(frames[-1], GoAwayFrame)
        assert frames[-1].error_code is error.code
        return None


#: The payload size each type is checked against (SETTINGS: a multiple
#: of it; GOAWAY, PUSH_PROMISE, CERTIFICATE: at least it).
_FIXED_SIZE = {
    TYPE_PRIORITY: 5, TYPE_RST_STREAM: 4, TYPE_SETTINGS: 6, TYPE_PING: 8,
    TYPE_GOAWAY: 8, TYPE_WINDOW_UPDATE: 4, TYPE_PUSH_PROMISE: 4,
    TYPE_CERTIFICATE: 1,
}


@st.composite
def structured_frames(draw):
    """One frame of any known type code or 0xFF, on stream 0, the open
    stream 1, the idle stream 5 or the largest id, with any flags and
    a payload at or next to its type's fixed size."""
    frame_type = draw(st.sampled_from(list(range(0xE)) + [0xFF]))
    size = _FIXED_SIZE.get(frame_type, 2)
    length = draw(st.sampled_from(sorted({0, size - 1, size, size + 1,
                                          2 * size})))
    payload = draw(st.binary(min_size=length, max_size=length))
    stream_id = draw(st.sampled_from([0, 1, 5, 2**31 - 1]))
    flags = draw(st.integers(0, 0xFF))
    return HEADER_STRUCT.pack((length << 8) | frame_type, flags,
                              stream_id) + payload


class TestFrameParserFuzz:
    @given(st.binary(max_size=400))
    @settings(max_examples=300)
    def test_random_bytes_never_crash(self, data):
        conn = endpoint()
        if receive_or_refuse(conn, data) is not None:
            # Whatever parsed, the leftover must be a strict suffix.
            assert data.endswith(bytes(conn._recv_buffer))

    @given(st.binary(max_size=200), st.integers(0, 60))
    @settings(max_examples=200)
    def test_truncated_valid_frames_buffer(self, payload, cut):
        wire = DataFrame(stream_id=1, data=payload).serialize()
        cut = min(cut, len(wire))
        conn = endpoint()
        events = conn.receive_data(wire[:-cut] if cut else wire)
        if cut == 0:
            assert events == [ev.DataReceived(1, payload, len(payload),
                                              False)]
            assert not conn._recv_buffer
        else:
            assert events == []
            assert bytes(conn._recv_buffer) == wire[:-cut]

    @given(
        st.lists(
            st.sampled_from([
                DataFrame(stream_id=1, data=b"x"),
                HeadersFrame(stream_id=1, flags=FLAG_END_HEADERS,
                             header_block=b"\x82"),
                PingFrame(),
                SettingsFrame(settings=((4, 65535),)),
                OriginFrame(origins=("https://a.com",)),
            ]),
            max_size=8,
        )
    )
    def test_concatenated_frames_all_parse(self, frames):
        wire = b"".join(frame.serialize() for frame in frames)
        conn = endpoint()
        assert len(conn.receive_data(wire)) == len(frames)
        assert not conn._recv_buffer

    @given(st.binary(min_size=9, max_size=100))
    @settings(max_examples=200)
    def test_mutated_headers_never_hang(self, data):
        # Force a frame-sized length prefix so the parser commits.
        body = data[9:]
        header = bytes([0, 0, len(body)]) + data[3:9]
        conn = endpoint()
        if receive_or_refuse(conn, header + body) is not None:
            assert not conn._recv_buffer

    @given(
        st.sampled_from([Role.CLIENT, Role.SERVER]),
        st.booleans(),
        st.lists(structured_frames(), min_size=1, max_size=3),
    )
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_structured_frames_fail_only_cleanly(self, role, pending,
                                                 frames):
        receive_or_refuse(endpoint(role, pending), b"".join(frames))


class TestHpackDecoderFuzz:
    @given(st.binary(max_size=300))
    @settings(max_examples=300)
    def test_random_blocks_raise_hpack_error_or_decode(self, block):
        decoder = HpackDecoder()
        try:
            headers = decoder.decode(block)
        except HpackError:
            return
        for name, value in headers:
            assert isinstance(name, str) and isinstance(value, str)


class TestTlsRecordFuzz:
    @given(st.binary(max_size=300))
    @settings(max_examples=300)
    def test_random_bytes_never_crash(self, data):
        records, rest = parse_records(data)
        assert data.endswith(rest)
        reassembled = b"".join(
            bytes([t]) + len(p).to_bytes(4, "big") + p
            for t, p in records
        ) + rest
        assert reassembled == data


class TestHttp1ParserFuzz:
    @given(st.binary(max_size=300))
    @settings(max_examples=300)
    def test_random_bytes_never_crash(self, data):
        try:
            message, rest = parse_message(data)
        except (ValueError, IndexError):
            # Malformed numerics in content-length / status lines are
            # surfaced as ValueError by design.
            return
        if message is None:
            assert rest == data


class TestConnectionFuzz:
    @given(st.binary(max_size=200))
    @settings(max_examples=150)
    def test_client_survives_garbage_or_fails_cleanly(self, data):
        client = H2Connection(Role.CLIENT)
        client.initiate()
        client.data_to_send()
        try:
            client.receive_data(data)
        except H2ConnectionError:
            # A GOAWAY must have been queued for the peer.
            assert client.data_to_send()
