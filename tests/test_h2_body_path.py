"""The h2 body path against a Frame-class implementation of it.

``ReferenceReceiver`` is the receive-side flow-control rule written
from the advertised window sizes alone: consumed bytes are returned in
one WINDOW_UPDATE once they reach half the window, for the connection
and for every stream still open.  ``OracleH2Connection`` is the body
path built on it and on the frame classes of the reference codec,
``tests/h2_reference_frames.py`` -- every frame parsed into an object,
every WINDOW_UPDATE followed by a drain, one ``min()`` per DATA frame
sent -- and on a table that keeps every stream it has seen, closed
ones included, where the product keeps only the live ones.  The tests
drive it and
:class:`~repro.h2.connection.H2Connection` with one schedule and
require the same bytes out, the same events, the same windows and
stream states, and the same exceptions.  ``oracle_on_bytes`` does the
same for :meth:`TlsChannel._on_bytes`.
"""

from collections import Counter
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.h2 import events as ev
from tests import h2_reference_frames as fr
from repro.h2.connection import H2Connection, Role
from repro.h2.errors import ErrorCode, H2ConnectionError, H2StreamError
from repro.h2.settings import DEFAULT_SETTINGS, SettingId
from repro.h2.stream import Stream, StreamInput, StreamState
from repro.h2.tls_channel import (
    REC_ALERT,
    REC_APPDATA,
    REC_FINISHED,
    TlsChannel,
    TlsClientChannel,
    TlsClientConfig,
    consume_records,
    pack_record,
)

DEFAULT_WINDOW = DEFAULT_SETTINGS[SettingId.INITIAL_WINDOW_SIZE]


class ReferenceReceiver:
    """Which WINDOW_UPDATEs a receiver owes, from what it advertised.

    ``consumed`` is what has arrived on the connection (id 0) or a
    stream and has not been returned; it goes back, whole, in the
    update sent when twice it reaches the advertised window.
    """

    def __init__(self, connection_window: int = DEFAULT_WINDOW,
                 stream_window: int = DEFAULT_WINDOW) -> None:
        self.stream_window = stream_window
        self.advertised = {0: connection_window}
        self.consumed = Counter()

    def consume(self, stream_id: int, length: int,
                is_open: bool = True) -> Optional[fr.WindowUpdateFrame]:
        """``length`` flow-controlled bytes arrived on ``stream_id``."""
        advertised = self.advertised.setdefault(stream_id,
                                                self.stream_window)
        self.consumed[stream_id] += length
        owed = self.consumed[stream_id]
        if not (length and is_open and 2 * owed >= advertised):
            return None
        self.consumed[stream_id] = 0
        return fr.WindowUpdateFrame(stream_id=stream_id, increment=owed)

    def replies(self, frame: fr.DataFrame) -> List[fr.WindowUpdateFrame]:
        """The answer to one accepted DATA frame: the connection's
        update, then the stream's unless the frame closed it."""
        length = frame.flow_controlled_length
        updates = (self.consume(0, length),
                   self.consume(frame.stream_id, length,
                                is_open=not frame.end_stream))
        return [update for update in updates if update is not None]


class OracleH2Connection(H2Connection):
    """The body path, one Frame object and one rule at a time.  Its
    streams are looked up in ``retained``, where HEADERS either way and
    a RST_STREAM sent make an entry for good: a closed stream answers
    as itself, and an ID without an entry is unknown."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.reference = ReferenceReceiver()
        self.retained: Dict[int, Stream] = {}

    def _stream(self, stream_id, event=None) -> Stream:
        stream = self.retained.get(stream_id)
        if stream is None or stream.state is StreamState.IDLE:
            stream = super()._stream(stream_id, event)
            if event in (StreamInput.SEND_HEADERS, StreamInput.RECV_HEADERS,
                         StreamInput.SEND_RST_STREAM):
                self.retained[stream_id] = stream
        return stream

    def _send_frame(self, frame: fr.Frame) -> None:
        self._outbound += frame.serialize()

    def _drain_send_queue(self) -> None:
        queue = self._send_queue
        skipped = 0
        while skipped < len(queue):
            stream_id, body, end_stream = queue[0]
            stream = self.retained.get(stream_id)
            if stream is None or stream.state is StreamState.CLOSED:
                queue.popleft()
                continue
            size = 0
            if body:
                if self.connection_send_window <= 0:
                    return  # nothing can move until a connection update
                if stream.send_window <= 0:
                    queue.rotate(-1)
                    skipped += 1
                    continue
                size = min(len(body), self.connection_send_window,
                           stream.send_window,
                           self.remote_settings.max_frame_size)
            rest = body[size:]
            fin = end_stream and not rest
            self._advance(stream, StreamInput.SEND_DATA)
            stream.send_window -= size
            if fin:
                self._advance(stream, StreamInput.SEND_END_STREAM)
            self.connection_send_window -= size
            self._send_frame(fr.DataFrame(
                stream_id=stream_id, data=bytes(body[:size]),
                flags=fr.FLAG_END_STREAM if fin else 0,
            ))
            skipped = 0
            if rest:
                queue[0] = (stream_id, rest, end_stream)
            else:
                queue.popleft()

    def receive_data(self, data: bytes) -> List[ev.Event]:
        events: List[ev.Event] = []
        buffer = self._recv_buffer
        buffer += data
        if self._preface_remaining:
            take = min(len(buffer), len(self._preface_remaining))
            if buffer[:take] != self._preface_remaining[:take]:
                raise H2ConnectionError(
                    ErrorCode.PROTOCOL_ERROR, "bad connection preface"
                )
            self._preface_remaining = self._preface_remaining[take:]
            del buffer[:take]
        try:
            while len(buffer) >= fr.FRAME_HEADER_LEN:
                end = fr.FRAME_HEADER_LEN + (
                    fr.HEADER_STRUCT.unpack_from(buffer, 0)[0] >> 8
                )
                if end > len(buffer):
                    break
                wire = bytes(buffer[:end])
                del buffer[:end]  # consumed, come what may
                frame = fr.parse_frame(wire)[0]
                kind = type(frame)
                if self._expected_continuation is not None:
                    kind = None  # only a CONTINUATION will do
                if kind is fr.DataFrame:
                    # A parsed frame has shed its padding; flow control
                    # counts the payload as it was on the wire.
                    self._on_data_frame(
                        frame, end - fr.FRAME_HEADER_LEN, events
                    )
                elif kind is fr.WindowUpdateFrame:
                    self._on_window_update(frame, events)
                else:
                    events += self._receive_frame(
                        wire[3], wire[4], frame.stream_id,
                        wire[fr.FRAME_HEADER_LEN:],
                    )
        except H2ConnectionError as error:
            self.send_goaway(error.code)
            raise
        return events

    def _on_data_frame(self, frame: fr.DataFrame, length: int,
                       events: List[ev.Event]) -> None:
        stream_id = frame.stream_id
        if stream_id == 0:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR, "DATA on stream 0"
            )
        stream = self.retained.get(stream_id)
        if stream is None:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR,
                f"cannot receive DATA on idle stream {stream_id}",
            )
        if length > self.connection_recv_window:
            raise H2ConnectionError(
                ErrorCode.FLOW_CONTROL_ERROR,
                "connection receive window overflow",
            )
        self.connection_recv_window -= length
        self._reply(self.reference.consume(0, length))
        try:
            self._advance(stream, StreamInput.RECV_DATA)
            if length > stream.recv_window:
                raise H2StreamError(stream_id, ErrorCode.FLOW_CONTROL_ERROR,
                                    "receive window overflow")
        except H2StreamError as error:
            self.send_rst_stream(stream_id, error.code)
            events.append(ev.StreamReset(stream_id, error.code))
            return
        stream.recv_window -= length
        if frame.end_stream:
            self._advance(stream, StreamInput.RECV_END_STREAM)
        events.append(
            ev.DataReceived(stream_id, frame.data, length, frame.end_stream)
        )
        self._reply(
            self.reference.consume(
                stream_id, length,
                is_open=stream.state is not StreamState.CLOSED)
        )
        if frame.end_stream:
            events.append(ev.StreamEnded(stream_id))

    def _reply(self, update: Optional[fr.WindowUpdateFrame]) -> None:
        if update is None:
            return
        if update.stream_id:
            self._streams[update.stream_id].recv_window += update.increment
        else:
            self.connection_recv_window += update.increment
        self._send_frame(update)

    def _on_window_update(self, frame: fr.WindowUpdateFrame,
                          events: List[ev.Event]) -> None:
        if frame.increment == 0:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR, "WINDOW_UPDATE with zero increment"
            )
        if frame.stream_id == 0:
            self.connection_send_window += frame.increment
        else:
            stream = self.retained.get(frame.stream_id)
            if stream is None:  # RFC 7540 §5.1: not for an idle stream
                raise H2ConnectionError(
                    ErrorCode.PROTOCOL_ERROR,
                    f"cannot receive WINDOW_UPDATE on idle stream "
                    f"{frame.stream_id}",
                )
            stream.send_window += frame.increment
        if self._send_queue:
            self._drain_send_queue()
        events.append(ev.WindowUpdated(frame.stream_id, frame.increment))


# ---------------------------------------------------------------------------
# The differential harness
# ---------------------------------------------------------------------------

_REQUEST = [(":method", "GET"), (":scheme", "https"),
            (":authority", "body.example"), (":path", "/")]
_RESPONSE = [(":status", "200")]
#: Position-dependent bytes, so a mis-sliced body cannot compare equal.
_PATTERN = bytes((i * 7 + i // 251) % 256 for i in range(200_000))
#: A stream id no schedule ever opens.
_UNKNOWN_STREAM = 9999


def _chunks(data: bytes, cuts) -> List[bytes]:
    """``data`` cut at the given offsets (taken modulo its length)."""
    offsets = sorted({cut % (len(data) + 1) for cut in cuts})
    pieces, last = [], 0
    for offset in offsets + [len(data)]:
        pieces.append(data[last:offset])
        last = offset
    return [piece for piece in pieces if piece] or [b""]


def _outcome(call):
    """What a call did, in a form two connections can be compared by."""
    try:
        return ("returned", call())
    except (H2ConnectionError, H2StreamError) as error:
        return ("raised", type(error), str(error), error.code,
                getattr(error, "stream_id", None))


def _observe(conn: H2Connection):
    """Everything the body path can change, bar the queue entries of
    closed streams: those emit nothing and are dropped by whichever
    drain next reaches them, which is not the same drain on both sides
    (the oracle runs drains that cannot emit).  Only the live streams
    have entries on either side."""
    streams = conn._streams
    return (
        conn.data_to_send(),
        conn.connection_send_window,
        conn.connection_recv_window,
        bytes(conn._recv_buffer),
        {
            stream_id: (stream.state, stream.send_window,
                        stream.recv_window)
            for stream_id, stream in streams.items()
        },
        [
            (stream_id, bytes(body), end_stream)
            for stream_id, body, end_stream in conn._send_queue
            if stream_id in streams
        ],
        conn.remote_settings.max_frame_size,
        conn._goaway_sent,
    )


class Differential:
    """One server connection of each kind behind one client encoder."""

    def __init__(self, preface_cuts=()) -> None:
        self.peer = H2Connection(Role.CLIENT)
        self.peer.initiate()
        self.conns = (H2Connection(Role.SERVER),
                      OracleH2Connection(Role.SERVER))
        for conn in self.conns:
            conn.initiate()
        self.opened: List[int] = []
        self.check()
        self.deliver(self.peer.data_to_send(), preface_cuts)

    def check(self, *outcomes) -> None:
        new, old = outcomes or (None, None)
        assert new == old
        if new is not None and new[0] == "returned" and new[1] is not None:
            assert repr(new[1]) == repr(old[1])
        assert _observe(self.conns[0]) == _observe(self.conns[1])
        conn, owed = self.conns[0], self.conns[1].reference.consumed
        assert conn._recv_unacked == owed[0]
        for stream_id, stream in conn._streams.items():
            assert stream.recv_unacked == owed[stream_id]

    def call(self, method: str, *args) -> None:
        self.check(*(
            _outcome(lambda: getattr(conn, method)(*args))
            for conn in self.conns
        ))

    def deliver(self, wire: bytes, cuts=()) -> None:
        for piece in _chunks(wire, cuts):
            self.call("receive_data", piece)

    def pick(self, index: int) -> int:
        if not self.opened:
            return _UNKNOWN_STREAM
        return self.opened[index % len(self.opened)]

    # -- the peer's frames ---------------------------------------------

    def open_frame(self, end_stream: bool) -> bytes:
        stream_id = self.peer.get_next_stream_id()
        self.opened.append(stream_id)
        self.peer.send_headers(stream_id, _REQUEST, end_stream=end_stream)
        return self.peer.data_to_send()

    def inbound(self, frame) -> bytes:
        kind = frame[0]
        if kind == "open":
            return self.open_frame(frame[1])
        if kind == "wu":
            _, target, increment = frame
            stream_id = 0 if target is None else self.pick(target)
            return fr.WINDOW_UPDATE_STRUCT.pack(
                fr.WINDOW_UPDATE_WORD, 0, stream_id, increment
            )
        if kind == "data":
            _, target, size, pad, end_stream = frame
            stream_id = {None: 0, -1: _UNKNOWN_STREAM}.get(target)
            if stream_id is None:
                stream_id = self.pick(target)
            flags = fr.FLAG_END_STREAM if end_stream else 0
            if pad is not None:
                flags |= fr.FLAG_PADDED
            return fr.DataFrame(
                stream_id=stream_id, flags=flags, data=_PATTERN[:size],
                pad_length=pad or 0,
            ).serialize()
        if kind == "rst":
            return fr.RstStreamFrame(
                stream_id=self.pick(frame[1]), error_code=ErrorCode.CANCEL
            ).serialize()
        if kind == "settings":
            return fr.SettingsFrame(settings=(
                (int(SettingId.MAX_FRAME_SIZE), frame[1]),
            )).serialize()
        if kind == "ping":
            return fr.PingFrame(opaque=b"12345678").serialize()
        assert kind == "short-wu"  # a 5-byte WINDOW_UPDATE: FRAME_SIZE_ERROR
        return fr.HEADER_STRUCT.pack(
            (5 << 8) | fr.TYPE_WINDOW_UPDATE, 0, 0
        ) + b"\x00\x00\x00\x01\x00"

    # -- one step of a schedule ------------------------------------------

    def step(self, op) -> None:
        kind = op[0]
        if kind == "deliver":
            _, frames, cuts = op
            self.deliver(b"".join(self.inbound(f) for f in frames), cuts)
        elif kind == "respond":
            self.call("send_headers", self.pick(op[1]), _RESPONSE, op[2])
        elif kind == "send":
            _, target, size, end_stream = op
            self.call("send_data", self.pick(target), _PATTERN[:size],
                      end_stream)
        else:
            assert kind == "rst-out"
            self.call("send_rst_stream", self.pick(op[1]))


_index = st.integers(0, 7)
_body_sizes = st.one_of(
    st.sampled_from([0, 1, 16_384, 16_385, 65_535, 65_536, 200_000]),
    st.integers(0, 200_000),
)
_increments = st.one_of(
    st.sampled_from([1, 677, 16_384, 65_535, 2 ** 20]),
    st.integers(0, 2 ** 18),
)
_data_sizes = st.sampled_from(
    [0, 1, 677, 16_383, 16_384, 32_767, 32_768, 65_535, 65_536]
)
_padding = st.none() | st.integers(0, 255)
#: DATA on a stream the schedule opened: what the receive rule eats.
_upload = st.tuples(st.just("data"), _index, _data_sizes, _padding,
                    st.sampled_from([False] * 7 + [True]))
_inbound = st.one_of(
    st.tuples(st.just("open"), st.booleans()),
    st.tuples(st.just("wu"), st.none() | _index, _increments),
    st.tuples(st.just("wu"), st.none() | _index, _increments),
    _upload,
    # ... on stream 0 and on a stream nobody opened.
    st.tuples(st.just("data"), st.none() | st.just(-1), _data_sizes,
              _padding, st.booleans()),
    st.tuples(st.just("rst"), _index),
    st.tuples(st.just("settings"),
              st.sampled_from([16_384, 20_000, 2 ** 24 - 1, 100])),
    st.tuples(st.just("ping")),
    st.tuples(st.just("short-wu")),
)
_cuts = st.lists(st.integers(0, 2 ** 16), max_size=3)
_ops = st.one_of(
    st.tuples(st.just("deliver"),
              st.lists(_inbound, min_size=1, max_size=5), _cuts),
    st.tuples(st.just("deliver"),
              st.lists(_upload, min_size=1, max_size=8), _cuts),
    st.tuples(st.just("respond"), _index, st.booleans()),
    st.tuples(st.just("send"), _index, _body_sizes, st.booleans()),
    st.tuples(st.just("send"), _index, _body_sizes, st.booleans()),
    st.tuples(st.just("rst-out"), _index),
)


@settings(max_examples=120, deadline=None)
@given(
    preface_cuts=st.lists(st.integers(0, 64), max_size=2),
    streams=st.integers(0, 6),
    schedule=st.lists(_ops, max_size=40),
)
def test_body_path_matches_the_oracle(preface_cuts, streams, schedule):
    """Random schedules: many streams, bodies of 0 B to 200 KB, window
    updates on the connection and on streams, resets from either side
    mid-body, zero-length sends, padded DATA, a changing max frame
    size, and deliveries cut at arbitrary offsets."""
    pair = Differential(preface_cuts)
    for _ in range(streams):
        pair.deliver(pair.open_frame(end_stream=False))
        pair.call("send_headers", pair.opened[-1], _RESPONSE, False)
    for op in schedule:
        pair.step(op)


def _blocked_pair(bodies=(100_000, 100_000, 100_000)) -> Differential:
    """Three response bodies queued behind a shut connection window."""
    pair = Differential()
    for size in bodies:
        pair.deliver(pair.open_frame(end_stream=True))
        pair.call("send_headers", pair.opened[-1], _RESPONSE, False)
        pair.call("send_data", pair.opened[-1], _PATTERN[:size], True)
    assert pair.conns[0].connection_send_window == 0
    return pair


def test_every_split_of_one_delivery_matches():
    """One delivery -- window updates that release queued DATA, a reset
    mid-body, inbound DATA (one padded), a SETTINGS frame -- cut in
    two at each byte offset."""
    probe = _blocked_pair()
    first, second, third = probe.opened
    wire = b"".join(probe.inbound(frame) for frame in (
        ("wu", None, 30_000), ("wu", 0, 30_000), ("rst", 1),
        ("settings", 20_000), ("wu", None, 90_000), ("wu", 2, 65_535),
        ("ping",), ("wu", 0, 1),
    ))
    assert len(wire) < 200
    for cut in range(len(wire) + 1):
        pair = _blocked_pair()
        pair.deliver(wire, [cut])
        assert second not in pair.conns[0]._streams  # reset


def test_headers_never_pass_queued_data():
    """Trailers with END_STREAM on a stream whose body is still queued
    are refused, not sent ahead of the body (which would end the stream
    and drop it); once the body drains, they go out after it."""
    pair = Differential()
    pair.deliver(pair.open_frame(end_stream=False))
    stream_id = pair.opened[-1]
    pair.call("send_headers", stream_id, _RESPONSE, False)
    pair.call("send_data", stream_id, _PATTERN[:100_000], False)
    trailers = [("x-checksum", "1")]
    for conn in pair.conns:
        conn.data_to_send()
        with pytest.raises(H2StreamError, match="ahead of queued DATA"):
            conn.send_headers(stream_id, trailers, end_stream=True)
        assert conn.data_to_send() == b""
    pair.check()
    wire = pair.inbound(("wu", None, 100_000)) \
        + pair.inbound(("wu", 0, 100_000))
    pair.deliver(wire)
    assert not pair.conns[0]._send_queue
    pair.call("send_headers", stream_id, trailers, True)
    assert pair.conns[0]._streams[stream_id].state \
        is StreamState.HALF_CLOSED_LOCAL


def test_inbound_data_split_at_every_offset():
    upload = fr.DataFrame(stream_id=1, data=_PATTERN[:40]).serialize() \
        + fr.DataFrame(stream_id=1, flags=fr.FLAG_PADDED,
                       data=_PATTERN[40:50], pad_length=7).serialize() \
        + fr.DataFrame(stream_id=1, flags=fr.FLAG_END_STREAM).serialize()
    for cut in range(len(upload) + 1):
        pair = Differential()
        pair.deliver(pair.open_frame(end_stream=False))
        pair.deliver(upload, [cut])
        assert pair.conns[0]._streams[1].state is \
            StreamState.HALF_CLOSED_REMOTE


@pytest.mark.parametrize("frame,code", [
    (("wu", None, 0), ErrorCode.PROTOCOL_ERROR),
    (("wu", 0, 0), ErrorCode.PROTOCOL_ERROR),
    (("data", None, 5, None, False), ErrorCode.PROTOCOL_ERROR),
    (("data", -1, 5, None, False), ErrorCode.PROTOCOL_ERROR),
    (("data", 0, 65_536, None, False), ErrorCode.FLOW_CONTROL_ERROR),
    (("short-wu",), ErrorCode.FRAME_SIZE_ERROR),
])
def test_violations_raise_what_they_raised(frame, code):
    """The bad frame fails both connections alike -- after the frame
    ahead of it was handled and before the one behind it is."""
    pair = Differential()
    pair.deliver(pair.open_frame(end_stream=False))
    wire = pair.inbound(("wu", None, 7)) + pair.inbound(frame) \
        + pair.inbound(("ping",))
    with pytest.raises(H2ConnectionError) as raised:
        pair.conns[0].receive_data(wire)
    assert raised.value.code is code
    with pytest.raises(H2ConnectionError):
        pair.conns[1].receive_data(wire)
    pair.check()
    assert pair.conns[0].connection_send_window == 65_535 + 7
    assert bytes(pair.conns[0]._recv_buffer) == pair.inbound(("ping",))


# ---------------------------------------------------------------------------
# When a drain is attempted
# ---------------------------------------------------------------------------


class _CountingConnection(H2Connection):
    drains = 0

    def _drain_send_queue(self) -> None:
        self.drains += 1
        super()._drain_send_queue()


def _counting_server(bodies) -> _CountingConnection:
    peer = H2Connection(Role.CLIENT)
    peer.initiate()
    conn = _CountingConnection(Role.SERVER)
    conn.initiate()
    for size in bodies:
        peer.send_headers(peer.get_next_stream_id(), _REQUEST,
                          end_stream=True)
    conn.receive_data(peer.data_to_send())
    for index, size in enumerate(bodies):
        conn.send_headers(2 * index + 1, _RESPONSE)
        conn.send_data(2 * index + 1, _PATTERN[:size], end_stream=True)
    conn.data_to_send()
    conn.drains = 0
    return conn


def _window_update(stream_id: int, increment: int) -> bytes:
    return fr.WINDOW_UPDATE_STRUCT.pack(
        fr.WINDOW_UPDATE_WORD, 0, stream_id, increment
    )


def test_stream_updates_do_not_drain_behind_a_shut_connection_window():
    conn = _counting_server([100_000, 100_000])
    assert conn.connection_send_window == 0
    events = conn.receive_data(
        _window_update(1, 500) + _window_update(3, 500)
    )
    assert events == [ev.WindowUpdated(1, 500), ev.WindowUpdated(3, 500)]
    assert conn.drains == 0 and conn.data_to_send() == b""
    # The connection update is the one that can move the queue.
    conn.receive_data(_window_update(0, 400))
    assert conn.drains == 1
    frames, rest = fr.parse_frames(conn.data_to_send())
    assert rest == b"" and [len(f.data) for f in frames] == [400]
    assert conn._streams[1].send_window == 100


def test_no_drain_without_a_queue():
    conn = _counting_server([10])
    conn.receive_data(_window_update(0, 10) + _window_update(1, 10))
    assert conn.drains == 0


def test_reset_under_queued_data_is_dropped_with_the_window_shut():
    """The no-window-needed flag: a stream reset under its queued body
    is an entry the next drain can act on without any window."""
    conn = _counting_server([100_000, 100_000])
    conn.receive_data(
        fr.RstStreamFrame(stream_id=1, error_code=ErrorCode.CANCEL)
        .serialize()
    )
    assert conn._windowless_queued and len(conn._send_queue) == 2
    conn.receive_data(_window_update(3, 1))
    # Stream 1's entry went; stream 3's is still behind the connection
    # window, so the drain stopped there and the flag stands.
    assert conn.drains == 1 and conn.data_to_send() == b""
    assert [entry[0] for entry in conn._send_queue] == [3]
    assert conn._windowless_queued
    conn.receive_data(_window_update(0, 5))
    assert len(conn.data_to_send()) == fr.FRAME_HEADER_LEN + 5
    # Only a drain that gets through the whole queue clears the flag;
    # until then every update attempts one, as every update used to.
    assert conn.drains == 2 and conn._windowless_queued
    conn.receive_data(_window_update(3, 1) + _window_update(0, 2 ** 20))
    assert conn.drains == 4 and not conn._windowless_queued
    assert conn._streams[3].send_window == 0 and len(conn._send_queue) == 1


def test_zero_length_end_of_stream_goes_out_with_the_window_shut():
    conn = _counting_server([65_535])
    assert conn.connection_send_window == 0 and not conn._send_queue
    peer = H2Connection(Role.CLIENT)
    conn.receive_data(
        fr.HeadersFrame(
            stream_id=3, flags=fr.FLAG_END_HEADERS | fr.FLAG_END_STREAM,
            header_block=peer._encoder.encode(_REQUEST),
        ).serialize()
    )
    conn.send_headers(3, _RESPONSE)
    conn.data_to_send()
    conn.send_data(3, b"", end_stream=True)
    assert conn.data_to_send() == fr.DataFrame(
        stream_id=3, flags=fr.FLAG_END_STREAM
    ).serialize()
    assert not conn._windowless_queued and 3 not in conn._streams


def test_receive_buffer_holds_only_an_incomplete_tail():
    conn = H2Connection(Role.CLIENT)
    conn.initiate()
    conn.send_headers(1, _REQUEST, end_stream=True)
    frame = fr.DataFrame(stream_id=1, data=b"x" * 100).serialize()
    conn.receive_data(frame * 3)
    assert not conn._recv_buffer
    conn.receive_data(frame + frame[:50])
    assert bytes(conn._recv_buffer) == frame[:50]
    # A dribbled tail is not re-parsed (or copied) until it completes.
    for byte in frame[50:-1]:
        assert conn.receive_data(bytes([byte])) == []
    assert len(conn._recv_buffer) == len(frame) - 1
    events = conn.receive_data(frame[-1:] + frame)
    assert [e.data for e in events] == [b"x" * 100] * 2
    assert not conn._recv_buffer


def test_payloads_are_bytes_whatever_was_fed():
    conn = H2Connection(Role.CLIENT)
    conn.initiate()
    conn.send_headers(1, _REQUEST, end_stream=True)
    frame = fr.DataFrame(stream_id=1, data=b"abc").serialize()
    for feed in (bytearray(frame), memoryview(frame)):
        (event,) = conn.receive_data(feed)
        assert type(event.data) is bytes and event.data == b"abc"


# ---------------------------------------------------------------------------
# Events: hand-slotted, dataclass-shaped
# ---------------------------------------------------------------------------


def test_body_events_keep_their_dataclass_shape():
    data = ev.DataReceived(3, b"ab", 9, True)
    assert repr(data) == ("DataReceived(stream_id=3, data=b'ab', "
                          "flow_controlled_length=9, end_stream=True)")
    assert data == ev.DataReceived(3, b"ab", 9, True)
    assert data != ev.DataReceived(3, b"ab", 9, False)
    update = ev.WindowUpdated(0, 677)
    assert repr(update) == "WindowUpdated(stream_id=0, delta=677)"
    assert update == ev.WindowUpdated(0, 677)
    assert update != ev.WindowUpdated(1, 677)
    assert update != data and data != (3, b"ab", 9, True)
    for event in (data, update):
        assert isinstance(event, ev.Event)
        assert not hasattr(event, "__dict__")
        with pytest.raises(TypeError):
            hash(event)


# ---------------------------------------------------------------------------
# TlsChannel._on_bytes
# ---------------------------------------------------------------------------


def oracle_on_bytes(self, data: bytes) -> None:
    """``TlsChannel._on_bytes`` as it stood: always through the buffer."""
    self._buffer += data
    for record_type, payload in consume_records(self._buffer):
        self._on_record(record_type, payload)


class _StubTransport:
    def __init__(self) -> None:
        self.on_data = None
        self.closed = False
        self.sent: List[bytes] = []

    def send(self, data: bytes) -> None:
        self.sent.append(data)

    def close(self) -> None:
        self.closed = True


class _RecordingChannel(TlsChannel):
    def __init__(self) -> None:
        super().__init__(_StubTransport())
        self.records = []

    def _on_record(self, record_type: int, payload: bytes) -> None:
        assert type(payload) is bytes
        self.records.append((record_type, payload))


def _record_sequences(deliveries) -> tuple:
    """The ``_on_record`` sequence from the channel and from the
    oracle, fed the same deliveries."""
    new, old = _RecordingChannel(), _RecordingChannel()
    for data in deliveries:
        new._on_bytes(data)
        oracle_on_bytes(old, data)
        assert new._buffer == old._buffer
    return new.records, old.records


_RECORDS = [
    pack_record(REC_APPDATA, b"first application record"),
    pack_record(REC_FINISHED, b""),
    pack_record(REC_APPDATA, b""),
    pack_record(REC_APPDATA, _PATTERN[:3000]),
]


def test_one_whole_record_per_delivery():
    new, old = _record_sequences(_RECORDS)
    assert new == old and len(new) == len(_RECORDS)


@pytest.mark.parametrize("record", _RECORDS[:3])
def test_one_record_split_at_each_offset(record):
    for cut in range(len(record) + 1):
        new, old = _record_sequences([record[:cut], record[cut:]])
        assert new == old and len(new) == 1


def test_two_records_in_one_delivery_and_a_straddling_tail():
    first, second = _RECORDS[0], _RECORDS[3]
    new, old = _record_sequences([first + second])
    assert new == old and len(new) == 2
    # A whole record arriving behind a buffered fragment must wait its
    # turn, not jump the buffer.
    new, old = _record_sequences([first[:7], first[7:] + second[:9],
                                  second[9:], first])
    assert new == old and len(new) == 3


@given(
    records=st.lists(
        st.tuples(st.sampled_from([REC_APPDATA, REC_FINISHED, REC_ALERT]),
                  st.binary(max_size=40)),
        min_size=1, max_size=5,
    ),
    cuts=st.lists(st.integers(0, 400), max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_any_cut_of_any_record_stream(records, cuts):
    wire = b"".join(pack_record(kind, body) for kind, body in records)
    new, old = _record_sequences(_chunks(wire, cuts))
    assert new == old == records


def _client_channel(log: list) -> TlsClientChannel:
    config = TlsClientConfig(sni="tls.example", trust_store=None,
                             authorities=(), now=lambda: 0.0)
    channel = TlsClientChannel(_StubTransport(), config)
    channel.established = True
    channel.on_app_data = lambda data: log.append(("app", data))
    channel.on_failed = lambda reason: log.append(("failed", reason))
    return channel


@pytest.mark.parametrize("cuts", [[], [3], [30], [31, 40], [5, 36, 50]])
def test_alert_closing_mid_delivery(cuts):
    """An ALERT between two APPDATA records closes the channel; the
    record behind it is still handed up, as it always was."""
    wire = pack_record(REC_APPDATA, b"before the alert") \
        + pack_record(REC_ALERT, b"bad certificate") \
        + pack_record(REC_APPDATA, b"after")
    logs = ([], [])
    channels = [_client_channel(log) for log in logs]
    for piece in _chunks(wire, cuts):
        channels[0]._on_bytes(piece)
        oracle_on_bytes(channels[1], piece)
    assert logs[0] == logs[1] == [
        ("app", b"before the alert"), ("failed", "bad certificate"),
        ("app", b"after"),
    ]
    assert all(channel.transport.closed for channel in channels)
