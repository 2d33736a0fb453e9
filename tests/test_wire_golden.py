"""Golden wire-bytes tests.

``tests/data/wire_golden.json`` freezes the exact bytes the H2
framing, HPACK, and record-framing layers produced before the
hot-path optimizations landed.  These tests replay the corpus against
the live code in both directions (serialize and parse), so any
optimization that changes a single wire byte -- framing layout, HPACK
indexing decisions, record packing -- fails here rather than showing
up as a silently different crawl.  The frames are built and parsed by
the reference codec (``tests/h2_reference_frames.py``); what
:class:`~repro.h2.connection.H2Connection` itself sends and reads is
held to the same bytes below.

Regenerate the corpus with ``scripts/gen_wire_golden.py`` only when
the wire format itself intentionally changes.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from typing import List

from repro.h2 import frames as product
from tests import h2_reference_frames as fr
from repro.h2.hpack import HpackDecoder, HpackEncoder
from repro.transport.framing import (
    consume_records,
    pack_record,
    parse_records,
)

DATA_PATH = (
    pathlib.Path(__file__).resolve().parent / "data" / "wire_golden.json"
)
CORPUS = json.loads(DATA_PATH.read_text())

def consume_frames(buffer: bytearray) -> List[fr.Frame]:
    """Parse complete frames out of a persistent receive buffer,
    deleting the consumed bytes in place.

    The connection's receive path before it walked frames inline, kept
    here as the reference the corpus is parsed through: whole buffer
    in, ``Frame`` objects out, an incomplete tail left behind.
    """
    frames: List[fr.Frame] = []
    offset = 0
    try:
        with memoryview(buffer) as view:
            total = len(view)
            while total - offset >= fr.FRAME_HEADER_LEN:
                word, flags, stream_id = fr.HEADER_STRUCT.unpack_from(
                    view, offset
                )
                length = word >> 8
                end = offset + fr.FRAME_HEADER_LEN + length
                if end > total:
                    break
                body = bytes(view[offset + fr.FRAME_HEADER_LEN : end])
                frames.append(
                    fr._parse_body(word & 0xFF, stream_id & 0x7FFFFFFF,
                                   flags, body)
                )
                offset = end
    finally:
        if offset:
            del buffer[:offset]
    return frames


FRAME_CLASSES = {
    cls.__name__: cls
    for cls in (
        fr.DataFrame, fr.HeadersFrame, fr.PriorityFrame,
        fr.RstStreamFrame, fr.SettingsFrame, fr.PushPromiseFrame,
        fr.PingFrame, fr.GoAwayFrame, fr.WindowUpdateFrame,
        fr.ContinuationFrame, fr.OriginFrame, fr.CertificateFrame,
        fr.UnknownFrame,
    )
}

#: kwargs fields that were hex-encoded bytes in the corpus.
_BYTES_FIELDS = {
    "data", "header_block", "opaque", "debug_data", "fragment",
    "raw_payload",
}


def _inflate_kwargs(doc: dict) -> dict:
    kwargs = {}
    for key, value in doc.items():
        if key in _BYTES_FIELDS:
            kwargs[key] = bytes.fromhex(value)
        elif isinstance(value, list):
            kwargs[key] = tuple(
                tuple(item) if isinstance(item, list) else item
                for item in value
            )
        else:
            kwargs[key] = value
    return kwargs


@pytest.mark.parametrize(
    "vector", CORPUS["frames"], ids=[v["name"] for v in CORPUS["frames"]]
)
def test_frame_serialization_is_frozen(vector):
    frame = FRAME_CLASSES[vector["cls"]](**_inflate_kwargs(vector["kwargs"]))
    assert frame.serialize().hex() == vector["hex"]


@pytest.mark.parametrize(
    "vector", CORPUS["frames"], ids=[v["name"] for v in CORPUS["frames"]]
)
def test_pack_frame_matches_serialize(vector):
    frame = FRAME_CLASSES[vector["cls"]](**_inflate_kwargs(vector["kwargs"]))
    out = bytearray()
    product.pack_frame(out, frame.type_code, frame.flags, frame.stream_id,
                       frame.payload())
    assert bytes(out).hex() == vector["hex"]


@pytest.mark.parametrize(
    "vector", CORPUS["frames"], ids=[v["name"] for v in CORPUS["frames"]]
)
def test_frame_parse_roundtrip_is_frozen(vector):
    wire = bytes.fromhex(vector["hex"])
    parsed, rest = fr.parse_frame(wire)
    assert rest == b""
    assert type(parsed).__name__ == vector["cls"]
    assert parsed.serialize().hex() == vector["reparse_hex"]


def test_frame_corpus_parses_as_one_buffer():
    """The whole corpus concatenated parses through the zero-copy
    consumer with nothing left over, in corpus order."""
    buffer = bytearray()
    for vector in CORPUS["frames"]:
        buffer.extend(bytes.fromhex(vector["hex"]))
    frames = consume_frames(buffer)
    assert not buffer
    assert [type(f).__name__ for f in frames] == \
        [v["cls"] for v in CORPUS["frames"]]
    assert [f.serialize().hex() for f in frames] == \
        [v["reparse_hex"] for v in CORPUS["frames"]]


def test_hpack_session_bytes_are_frozen():
    """Replaying the 7-block stateful session must reproduce every
    encoded byte and every decode, plus the final table state."""
    doc = CORPUS["hpack"]
    encoder = HpackEncoder()
    decoder = HpackDecoder()
    for block in doc["blocks"]:
        headers = [tuple(h) for h in block["headers"]]
        wire = encoder.encode(headers)
        assert wire.hex() == block["hex"]
        decoded = decoder.decode(wire)
        assert [list(h) for h in decoded] == block["decoded"]
    assert encoder.table.size == doc["final_encoder_table_size"]
    assert decoder.table.size == doc["final_decoder_table_size"]
    assert len(encoder.table) == doc["final_table_len"]


def test_record_packing_is_frozen():
    doc = CORPUS["tls_records"]
    for vector in doc["records"]:
        wire = pack_record(vector["type"],
                           bytes.fromhex(vector["payload"]))
        assert wire.hex() == vector["hex"]


def test_record_stream_parses_both_ways():
    doc = CORPUS["tls_records"]
    stream = bytes.fromhex(doc["stream_hex"])
    parsed, rest = parse_records(stream)
    assert rest == b""
    assert [(t, p.hex()) for t, p in parsed] == \
        [(v["type"], v["payload"]) for v in doc["records"]]
    buffer = bytearray(stream)
    consumed = consume_records(buffer)
    assert not buffer
    assert consumed == parsed


def test_partial_frame_stays_buffered():
    """A truncated tail must stay in the buffer for the next read --
    the zero-copy consumer's contract with the channel layer."""
    full = bytes.fromhex(CORPUS["frames"][0]["hex"])
    buffer = bytearray(full + full[: fr.FRAME_HEADER_LEN + 2])
    frames = consume_frames(buffer)
    assert len(frames) == 1
    assert bytes(buffer) == full[: fr.FRAME_HEADER_LEN + 2]


# -- the connection's own frames against the frozen bytes

#: Every corpus frame a connection sends other than DATA and
#: WINDOW_UPDATE (HEADERS blocks depend on the HPACK state).
_SENT_VECTORS = [
    v for v in CORPUS["frames"]
    if v["name"] in ("settings", "settings-ack", "ping-ack", "rst-stream",
                     "goaway", "origin", "origin-empty", "certificate")
]


@pytest.mark.parametrize(
    "vector", _SENT_VECTORS, ids=[v["name"] for v in _SENT_VECTORS]
)
def test_connection_sends_the_frozen_frames(vector):
    from repro.h2.connection import H2Connection, Role
    from repro.h2.errors import ErrorCode

    name, kwargs = vector["name"], _inflate_kwargs(vector["kwargs"])
    answers = name in ("settings-ack", "ping-ack")
    conn = H2Connection(Role.CLIENT if answers else Role.SERVER)
    conn.initiate(kwargs["settings"] if name == "settings" else ())
    if name != "settings":
        conn.data_to_send()
    if name == "settings-ack":
        conn.receive_data(fr.SettingsFrame().serialize())
    elif name == "ping-ack":
        conn.receive_data(fr.PingFrame(opaque=kwargs["opaque"]).serialize())
    elif name == "rst-stream":
        conn.send_rst_stream(kwargs["stream_id"],
                             ErrorCode(kwargs["error_code"]))
    elif name == "goaway":
        conn._highest_remote_stream = kwargs["last_stream_id"]
        conn.send_goaway(ErrorCode(kwargs["error_code"]),
                         kwargs["debug_data"])
    elif name == "certificate":
        conn.send_certificate(kwargs["cert_id"], kwargs["fragment"])
    elif name != "settings":
        conn.send_origin(kwargs["origins"])
    assert conn.data_to_send().hex() == vector["hex"]


# -- the connection's body path against the frozen DATA / WINDOW_UPDATE bytes
#
# H2Connection writes and reads these two frame types without the Frame
# classes above; the corpus pins that path to the same bytes.

_BODY_VECTORS = [
    v for v in CORPUS["frames"]
    if v["cls"] in ("DataFrame", "WindowUpdateFrame")
]
#: The connection never pads what it sends.
_SENDABLE_VECTORS = [
    v for v in _BODY_VECTORS if not v["kwargs"].get("pad_length")
]
_REQUEST = [(":method", "GET"), (":scheme", "https"),
            (":authority", "golden.example"), (":path", "/")]


def _client_with_stream(stream_id: int, end_stream: bool):
    from repro.h2.connection import H2Connection, Role

    conn = H2Connection(Role.CLIENT)
    conn.initiate()
    if stream_id:
        conn.send_headers(stream_id, _REQUEST, end_stream=end_stream)
    conn.data_to_send()
    return conn


@pytest.mark.parametrize(
    "vector", _SENDABLE_VECTORS, ids=[v["name"] for v in _SENDABLE_VECTORS]
)
def test_connection_emits_the_frozen_body_frames(vector):
    kwargs = _inflate_kwargs(vector["kwargs"])
    stream_id = kwargs.get("stream_id", 0)
    conn = _client_with_stream(stream_id, end_stream=False)
    if vector["cls"] == "DataFrame":
        conn.send_data(
            stream_id, kwargs["data"],
            end_stream=bool(kwargs.get("flags", 0) & fr.FLAG_END_STREAM),
        )
    else:
        conn.send_window_update(stream_id, kwargs["increment"])
    assert conn.data_to_send().hex() == vector["hex"]


@pytest.mark.parametrize(
    "vector", _BODY_VECTORS, ids=[v["name"] for v in _BODY_VECTORS]
)
def test_connection_reads_the_frozen_body_frames(vector):
    """The event carries exactly what the Frame parser extracts, the
    flow-controlled length is the wire payload's, padding included, and
    the frame read over and over draws the reference receiver's
    WINDOW_UPDATEs (a frame that ends its stream is read once)."""
    from repro.h2 import events as ev
    from tests.test_h2_body_path import DEFAULT_WINDOW, ReferenceReceiver

    wire = bytes.fromhex(vector["hex"])
    parsed, _ = fr.parse_frame(wire)
    conn = _client_with_stream(parsed.stream_id, end_stream=True)
    if vector["cls"] == "WindowUpdateFrame":
        assert conn.receive_data(wire) == [
            ev.WindowUpdated(parsed.stream_id, parsed.increment)
        ]
        return
    # The parsed frame has shed its padding; the corpus's own frame
    # still knows what flow control has to count.
    frame = fr.DataFrame(**_inflate_kwargs(vector["kwargs"]))
    length = len(wire) - fr.FRAME_HEADER_LEN
    assert frame.flow_controlled_length == length
    expected = [ev.DataReceived(parsed.stream_id, parsed.data, length,
                                parsed.end_stream)]
    if parsed.end_stream:
        expected.append(ev.StreamEnded(parsed.stream_id))
    reference = ReferenceReceiver()
    replies = []
    for _ in range(1 if parsed.end_stream else DEFAULT_WINDOW // length):
        assert conn.receive_data(wire) == expected
        replies += reference.replies(frame)
    assert replies or parsed.end_stream
    assert conn.data_to_send() == b"".join(r.serialize() for r in replies)
