"""Wire-format tests for HTTP/2 frames, including ORIGIN (RFC 8336).

The frame classes are the tests' reference codec
(``tests/h2_reference_frames.py``).  Every malformed payload the
reference parser refuses or ignores is also fed to the product's own
parser, :meth:`H2Connection.receive_data`, which must refuse it with
the same error code or ignore it the same way (``TestProductTwins``).
"""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.h2 import ErrorCode, H2Connection, H2ConnectionError, Role
from repro.h2 import events as ev
from repro.h2 import frames
from tests.h2_reference_frames import (
    FLAG_ACK,
    FLAG_END_HEADERS,
    FLAG_END_STREAM,
    FLAG_PADDED,
    FLAG_PRIORITY,
    FRAME_HEADER_LEN,
    HEADER_STRUCT,
    TYPE_DATA,
    TYPE_GOAWAY,
    TYPE_HEADERS,
    TYPE_ORIGIN,
    TYPE_PING,
    TYPE_PRIORITY,
    TYPE_PUSH_PROMISE,
    TYPE_RST_STREAM,
    TYPE_SETTINGS,
    TYPE_WINDOW_UPDATE,
    ContinuationFrame,
    DataFrame,
    GoAwayFrame,
    HeadersFrame,
    OriginFrame,
    PingFrame,
    PriorityFrame,
    RstStreamFrame,
    SettingsFrame,
    UnknownFrame,
    WindowUpdateFrame,
    parse_frame,
    parse_frames,
)


def roundtrip(frame):
    parsed, rest = parse_frame(frame.serialize())
    assert rest == b""
    return parsed


class TestFrameHeader:
    def test_header_layout(self):
        frame = DataFrame(stream_id=5, data=b"hello")
        wire = frame.serialize()
        length = int.from_bytes(wire[0:3], "big")
        assert length == 5
        assert wire[3] == 0x0  # DATA
        assert struct.unpack(">I", wire[5:9])[0] == 5

    def test_incomplete_buffer_returns_none(self):
        wire = DataFrame(stream_id=1, data=b"hello").serialize()
        frame, rest = parse_frame(wire[:-1])
        assert frame is None
        assert rest == wire[:-1]

    def test_parse_frames_splits_stream(self):
        wire = (
            DataFrame(stream_id=1, data=b"a").serialize()
            + PingFrame().serialize()
        )
        frames, rest = parse_frames(wire)
        assert len(frames) == 2
        assert rest == b""

    def test_parse_frames_keeps_partial_tail(self):
        wire = DataFrame(stream_id=1, data=b"a").serialize()
        partial = PingFrame().serialize()[:4]
        frames, rest = parse_frames(wire + partial)
        assert len(frames) == 1
        assert rest == partial


class TestDataFrame:
    def test_roundtrip(self):
        frame = roundtrip(
            DataFrame(stream_id=3, flags=FLAG_END_STREAM, data=b"body")
        )
        assert isinstance(frame, DataFrame)
        assert frame.data == b"body"
        assert frame.end_stream

    def test_padding_stripped_on_parse(self):
        frame = roundtrip(DataFrame(stream_id=3, data=b"body", pad_length=7))
        assert frame.data == b"body"
        assert not frame.flags & FLAG_PADDED

    def test_flow_controlled_length_includes_padding(self):
        frame = DataFrame(stream_id=3, data=b"body", pad_length=7)
        assert frame.flow_controlled_length == 4 + 1 + 7

    def test_bad_padding_rejected(self):
        # pad length byte larger than remaining payload
        header = bytes([0, 0, 2, 0x0, FLAG_PADDED, 0, 0, 0, 3])
        with pytest.raises(H2ConnectionError):
            parse_frame(header + bytes([200, 1]))


class TestHeadersFrame:
    def test_roundtrip(self):
        frame = roundtrip(
            HeadersFrame(
                stream_id=1,
                flags=FLAG_END_HEADERS | FLAG_END_STREAM,
                header_block=b"\x82",
            )
        )
        assert isinstance(frame, HeadersFrame)
        assert frame.header_block == b"\x82"
        assert frame.end_headers and frame.end_stream

    def test_priority_fields_skipped(self):
        body = struct.pack(">IB", 3, 15) + b"\x82"
        header = bytes([0, 0, len(body), 0x1, FLAG_PRIORITY | FLAG_END_HEADERS,
                        0, 0, 0, 1])
        frame, _ = parse_frame(header + body)
        assert frame.header_block == b"\x82"


class TestControlFrames:
    def test_rst_roundtrip(self):
        frame = roundtrip(
            RstStreamFrame(stream_id=7, error_code=ErrorCode.CANCEL)
        )
        assert frame.error_code is ErrorCode.CANCEL

    def test_settings_roundtrip(self):
        frame = roundtrip(SettingsFrame(settings=((0x4, 1048576), (0x3, 100))))
        assert frame.settings == ((0x4, 1048576), (0x3, 100))

    def test_settings_ack_with_payload_rejected(self):
        header = bytes([0, 0, 6, 0x4, FLAG_ACK, 0, 0, 0, 0])
        with pytest.raises(H2ConnectionError):
            parse_frame(header + b"\x00" * 6)

    def test_settings_bad_length_rejected(self):
        header = bytes([0, 0, 5, 0x4, 0, 0, 0, 0, 0])
        with pytest.raises(H2ConnectionError):
            parse_frame(header + b"\x00" * 5)

    def test_ping_must_be_8_bytes(self):
        with pytest.raises(H2ConnectionError):
            PingFrame(opaque=b"short")

    def test_ping_roundtrip(self):
        frame = roundtrip(PingFrame(opaque=b"12345678", flags=FLAG_ACK))
        assert frame.opaque == b"12345678"
        assert frame.is_ack

    def test_goaway_roundtrip(self):
        frame = roundtrip(
            GoAwayFrame(last_stream_id=31,
                        error_code=ErrorCode.PROTOCOL_ERROR,
                        debug_data=b"why")
        )
        assert frame.last_stream_id == 31
        assert frame.error_code is ErrorCode.PROTOCOL_ERROR
        assert frame.debug_data == b"why"

    def test_window_update_roundtrip(self):
        frame = roundtrip(WindowUpdateFrame(stream_id=1, increment=65535))
        assert frame.increment == 65535

    def test_priority_roundtrip(self):
        frame = roundtrip(
            PriorityFrame(stream_id=5, dependency=3, weight=42,
                          exclusive=True)
        )
        assert frame.dependency == 3
        assert frame.weight == 42
        assert frame.exclusive

    def test_continuation_roundtrip(self):
        frame = roundtrip(
            ContinuationFrame(stream_id=1, flags=FLAG_END_HEADERS,
                              header_block=b"rest")
        )
        assert frame.header_block == b"rest"
        assert frame.end_headers

    def test_unknown_error_code_becomes_internal(self):
        header = bytes([0, 0, 4, 0x3, 0, 0, 0, 0, 1])
        frame, _ = parse_frame(header + struct.pack(">I", 0xDEAD))
        assert frame.error_code is ErrorCode.INTERNAL_ERROR


class TestOriginFrame:
    def test_roundtrip(self):
        origins = ("https://example.com", "https://cdn.example.com")
        frame = roundtrip(OriginFrame(origins=origins))
        assert isinstance(frame, OriginFrame)
        assert frame.origins == origins

    def test_wire_layout_matches_rfc8336(self):
        frame = OriginFrame(origins=("https://a.com",))
        wire = frame.serialize()
        assert wire[3] == TYPE_ORIGIN
        body = wire[FRAME_HEADER_LEN:]
        length = struct.unpack(">H", body[:2])[0]
        assert length == len("https://a.com")
        assert body[2 : 2 + length] == b"https://a.com"

    def test_empty_origin_set_is_valid(self):
        # RFC 8336 §2.2: empty set means "coalesce nothing new".
        frame = roundtrip(OriginFrame(origins=()))
        assert frame.origins == ()

    def test_origin_on_nonzero_stream_rejected_at_build(self):
        with pytest.raises(H2ConnectionError):
            OriginFrame(stream_id=3, origins=("https://a.com",))

    def test_origin_on_nonzero_stream_ignored_at_parse(self):
        # Hand-craft type 0xC on stream 3; parser surfaces UnknownFrame.
        body = struct.pack(">H", 13) + b"https://a.com"
        header = bytes([0, 0, len(body), TYPE_ORIGIN, 0, 0, 0, 0, 3])
        frame, _ = parse_frame(header + body)
        assert isinstance(frame, UnknownFrame)

    def test_truncated_entry_ignored_as_unknown(self):
        body = struct.pack(">H", 100) + b"short"
        header = bytes([0, 0, len(body), TYPE_ORIGIN, 0, 0, 0, 0, 0])
        frame, _ = parse_frame(header + body)
        assert isinstance(frame, UnknownFrame)

    def test_non_ascii_origin_ignored_as_unknown(self):
        raw = "https://ünicode.com".encode("utf-8")
        body = struct.pack(">H", len(raw)) + raw
        header = bytes([0, 0, len(body), TYPE_ORIGIN, 0, 0, 0, 0, 0])
        frame, _ = parse_frame(header + body)
        assert isinstance(frame, UnknownFrame)

    @given(
        st.lists(
            st.from_regex(r"https://[a-z]{1,20}\.[a-z]{2,5}", fullmatch=True),
            max_size=20,
        )
    )
    def test_any_origin_list_roundtrips(self, origins):
        frame = roundtrip(OriginFrame(origins=tuple(origins)))
        assert frame.origins == tuple(origins)


class TestUnknownFrame:
    def test_unknown_type_surfaced_not_crashed(self):
        header = bytes([0, 0, 3, 0xEE, 0x7, 0, 0, 0, 9])
        frame, rest = parse_frame(header + b"xyz")
        assert isinstance(frame, UnknownFrame)
        assert frame.raw_type == 0xEE
        assert frame.raw_payload == b"xyz"
        assert frame.stream_id == 9

    def test_unknown_frame_reserializes(self):
        frame = UnknownFrame(stream_id=9, raw_type=0xEE, raw_payload=b"xyz")
        reparsed, _ = parse_frame(frame.serialize())
        assert isinstance(reparsed, UnknownFrame)
        assert reparsed.raw_payload == b"xyz"


# -- the same malformed payloads through the product's parser ---------------

_REQUEST = [(":method", "GET"), (":scheme", "https"),
            (":authority", "twin.example"), (":path", "/")]


def _raw(frame_type, flags, stream_id, body):
    return HEADER_STRUCT.pack((len(body) << 8) | frame_type, flags,
                              stream_id) + body


def _client(open_stream=False, continuation_pending=False):
    """A client past its preface, with stream 1 open if asked, and a
    HEADERS block on it awaiting its CONTINUATION if asked."""
    client = H2Connection(Role.CLIENT)
    client.initiate()
    if open_stream or continuation_pending:
        client.send_headers(1, _REQUEST)
    client.data_to_send()
    if continuation_pending:
        client.receive_data(_raw(TYPE_HEADERS, 0, 1, b"\x82"))
    return client


def _outcome_of_the_product(wire, client):
    """The error code the product refused ``wire`` with (a GOAWAY
    carrying it queued), or the events it produced."""
    try:
        events = client.receive_data(wire)
    except H2ConnectionError as error:
        goaway = parse_frames(client.data_to_send())[0][-1]
        assert isinstance(goaway, GoAwayFrame)
        assert goaway.error_code is error.code
        return error.code
    return events


def _outcome_of_the_reference(wire):
    try:
        return parse_frame(wire)[0]
    except H2ConnectionError as error:
        return error.code


_ORIGIN_ENTRY = struct.pack(">H", 13) + b"https://a.com"
_NON_ASCII = "https://ünicode.com".encode("utf-8")

#: Each malformed-payload case above, as wire bytes.
MALFORMED = {
    "data-bad-padding": _raw(TYPE_DATA, FLAG_PADDED, 3, bytes([200, 1])),
    "headers-bad-padding": _raw(TYPE_HEADERS, FLAG_PADDED | FLAG_END_HEADERS,
                                3, bytes([9, 0x82])),
    "headers-short-priority": _raw(
        TYPE_HEADERS, FLAG_PRIORITY | FLAG_END_HEADERS, 3, b"\x00" * 4),
    "priority-short": _raw(TYPE_PRIORITY, 0, 1, b"\x00" * 4),
    "rst-stream-short": _raw(TYPE_RST_STREAM, 0, 1, b"\x00" * 3),
    "goaway-short": _raw(TYPE_GOAWAY, 0, 0, b"\x00" * 7),
    "push-promise-short": _raw(TYPE_PUSH_PROMISE, FLAG_END_HEADERS, 1,
                               b"\x00" * 3),
    "settings-length-5": _raw(TYPE_SETTINGS, 0, 0, b"\x00" * 5),
    "settings-ack-with-payload": _raw(TYPE_SETTINGS, FLAG_ACK, 0,
                                      b"\x00" * 6),
    "ping-5-bytes": _raw(TYPE_PING, 0, 0, b"short"),
    "ping-9-bytes": _raw(TYPE_PING, 0, 0, b"123456789"),
    "window-update-3-bytes": _raw(TYPE_WINDOW_UPDATE, 0, 0, b"\x00" * 3),
    "origin-truncated": _raw(TYPE_ORIGIN, 0, 0,
                             struct.pack(">H", 100) + b"short"),
    "origin-half-a-length": _raw(TYPE_ORIGIN, 0, 0, _ORIGIN_ENTRY + b"\x00"),
    "origin-non-ascii": _raw(TYPE_ORIGIN, 0, 0,
                             struct.pack(">H", len(_NON_ASCII)) + _NON_ASCII),
    "origin-on-stream-3": _raw(TYPE_ORIGIN, 0, 3, _ORIGIN_ENTRY),
}


class TestProductTwins:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_product_agrees_with_the_reference(self, name):
        wire = MALFORMED[name]
        expected = _outcome_of_the_reference(wire)
        got = _outcome_of_the_product(wire, _client())
        if isinstance(expected, UnknownFrame):
            assert got == [ev.UnknownFrameReceived(
                raw_type=expected.raw_type, stream_id=expected.stream_id)]
        else:
            assert isinstance(expected, ErrorCode)
            assert got is expected

    @pytest.mark.parametrize("frame_type, body", [
        (TYPE_RST_STREAM, struct.pack(">I", 0xDEAD)),
        (TYPE_GOAWAY, struct.pack(">II", 0, 0xDEAD)),
    ])
    def test_unknown_error_code_reads_as_internal_error(self, frame_type,
                                                       body):
        stream_id = 1 if frame_type == TYPE_RST_STREAM else 0
        wire = _raw(frame_type, 0, stream_id, body)
        assert parse_frame(wire)[0].error_code is ErrorCode.INTERNAL_ERROR
        (event,) = _client(open_stream=True).receive_data(wire)
        assert event.error_code is ErrorCode.INTERNAL_ERROR

    @pytest.mark.parametrize("name, wire", [
        ("ping-5-bytes", _raw(TYPE_PING, 0, 0, b"short")),
        ("rst-stream-3-bytes", _raw(TYPE_RST_STREAM, 0, 1, b"\x00" * 3)),
        ("priority-4-bytes", _raw(TYPE_PRIORITY, 0, 1, b"\x00" * 4)),
        ("goaway-7-bytes", _raw(TYPE_GOAWAY, 0, 0, b"\x00" * 7)),
        ("settings-length-5", _raw(TYPE_SETTINGS, 0, 0, b"\x00" * 5)),
        ("window-update-3-bytes",
         _raw(TYPE_WINDOW_UPDATE, 0, 0, b"\x00" * 3)),
    ])
    def test_a_bad_size_is_found_before_a_missing_continuation(self, name,
                                                               wire):
        client = _client(continuation_pending=True)
        assert _outcome_of_the_product(wire, client) is \
            ErrorCode.FRAME_SIZE_ERROR

    @pytest.mark.parametrize("name, wire", [
        ("ping", PingFrame().serialize()),
        ("settings", SettingsFrame().serialize()),
        ("window-update-zero", WindowUpdateFrame(increment=0).serialize()),
        ("window-update", WindowUpdateFrame(increment=1).serialize()),
        ("rst-stream", RstStreamFrame(stream_id=1).serialize()),
        ("priority", PriorityFrame(stream_id=1).serialize()),
        ("goaway", GoAwayFrame().serialize()),
        ("data", DataFrame(stream_id=1, data=b"x").serialize()),
        ("headers", HeadersFrame(stream_id=1, flags=FLAG_END_HEADERS,
                                 header_block=b"\x82").serialize()),
        ("origin", OriginFrame(origins=("https://a.com",)).serialize()),
        ("unknown", UnknownFrame(raw_type=0xEE).serialize()),
    ])
    def test_a_well_formed_frame_is_refused_as_interleaved(self, name, wire):
        client = _client(continuation_pending=True)
        with pytest.raises(H2ConnectionError, match="interleaved") as info:
            client.receive_data(wire)
        assert info.value.code is ErrorCode.PROTOCOL_ERROR

    def test_the_continuation_still_completes_the_block(self):
        client = _client(continuation_pending=True)
        events = client.receive_data(ContinuationFrame(
            stream_id=1, flags=FLAG_END_HEADERS, header_block=b"").serialize())
        assert [type(e) for e in events] == [ev.ResponseReceived]


class TestProductEncoders:
    """The checks the product's encoders make on what it is asked to
    send."""

    def test_payload_past_the_24_bit_length_refused(self):
        out = bytearray()
        with pytest.raises(H2ConnectionError) as refused:
            frames.pack_frame(out, TYPE_DATA, 0, 1, bytes(2**24))
        assert refused.value.code is ErrorCode.FRAME_SIZE_ERROR
        assert not out

    def test_origin_past_65535_bytes_refused(self):
        server = H2Connection(Role.SERVER)
        with pytest.raises(H2ConnectionError) as refused:
            server.send_origin(("https://" + "a" * 0xFFFF,))
        assert refused.value.code is ErrorCode.FRAME_SIZE_ERROR

    def test_cert_id_past_one_byte_refused(self):
        server = H2Connection(Role.SERVER)
        with pytest.raises(H2ConnectionError) as refused:
            server.send_certificate(0x100, b"chain")
        assert refused.value.code is ErrorCode.PROTOCOL_ERROR
        assert not server.data_to_send()
