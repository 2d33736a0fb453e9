"""Flow control between two live connections, under random schedules.

A client and a server :class:`~repro.h2.connection.H2Connection` are
joined by two byte pipes that the schedule drains a few bytes at a
time, so every frame can arrive split at any offset.  Each pipe reads
the frames its sender emits (always whole) and knows which of them have
arrived in full; from that and the connections' events the harness
keeps its own books -- what each side advertised, consumed and gave
back -- and holds the connections to them after every step:

* no receive window and no send window is ever negative (a send window
  may only go below zero through a SETTINGS decrease, RFC 7540 §6.9.2,
  which this stack applies to new streams only);
* WINDOW_UPDATE increments sent plus bytes not yet returned equal the
  bytes received, per connection and per stream;
* the bytes not yet returned stay under half the advertised window;
* the sender's view of a window is the receiver's, less what is in
  flight either way -- so it never sends past the peer's window;
* a closed stream keeps no entry, and no WINDOW_UPDATE goes out for
  it once it has none;
* once the pipes run dry every transfer that was not reset is complete
  on both sides: no window size deadlocks;
* and a violation fed in afterwards is still refused with its code.
"""

from collections import Counter, deque
from typing import Dict, List, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.h2 import events as ev
from tests import h2_reference_frames as fr
from repro.h2.client import SESSION_RECV_WINDOW, STREAM_RECV_WINDOW
from repro.h2.connection import H2Connection, Role
from repro.h2.errors import ErrorCode, H2ConnectionError
from repro.h2.settings import SettingId
from repro.h2.stream import StreamInput, StreamState
from tests.test_h2_body_path import DEFAULT_WINDOW

MiB = 1024 * 1024
REQUEST = [(":method", "GET"), (":scheme", "https"),
           (":authority", "flow.example"), (":path", "/")]
RESPONSE = [(":status", "200")]
#: Position-dependent bytes; every body is a slice of them.
_PATTERN = bytes(range(256)) * (8 * MiB // 256 + 1)
MAX_STREAMS = 40
#: Bodies above this are rationed per schedule, to bound its run time.
LARGE = MiB
#: Frames sent into a window of a few bytes are a few bytes each.
FRAMES_PER_TINY_BODY = 400
_INITIAL_WINDOW = int(SettingId.INITIAL_WINDOW_SIZE)


class Pipe:
    """One direction of the link: bytes in flight, and the DATA and
    WINDOW_UPDATE frames among them that have not arrived in full."""

    def __init__(self) -> None:
        self.buffer = bytearray()
        #: ``[bytes still to arrive, stream id, DATA length, increment]``
        self.frames = deque()
        self.sent_updates = Counter()       # increments, by stream id
        self.arrived_data = 0               # flow-controlled, whole frames

    def emit(self, wire: bytes) -> None:
        """Queue what an endpoint wrote: always whole frames."""
        offset = 0
        if wire.startswith(fr.CONNECTION_PREFACE):
            offset = len(fr.CONNECTION_PREFACE)
            self.frames.append([offset, 0, 0, 0])
        while offset < len(wire):
            word, _, stream_id = fr.HEADER_STRUCT.unpack_from(wire, offset)
            size = fr.FRAME_HEADER_LEN + (word >> 8)
            data = increment = 0
            if word & 0xFF == fr.TYPE_DATA:
                data = word >> 8
            elif word & 0xFF == fr.TYPE_WINDOW_UPDATE:
                increment = fr.WINDOW_UPDATE_STRUCT.unpack_from(
                    wire, offset)[3]
                self.sent_updates[stream_id] += increment
            self.frames.append([size, stream_id, data, increment])
            offset += size
        assert offset == len(wire)
        self.buffer += wire

    def take(self, count: int) -> bytes:
        """The next ``count`` bytes, now delivered."""
        piece = bytes(self.buffer[:count])
        del self.buffer[:count]
        while count and self.frames:
            head = self.frames[0]
            used = min(count, head[0])
            head[0] -= used
            count -= used
            if head[0]:
                break
            self.arrived_data += head[2]
            self.frames.popleft()
        return piece

    def in_flight(self) -> Tuple[int, int]:
        """``(DATA bytes, connection increments)`` not yet arrived."""
        return (sum(frame[2] for frame in self.frames),
                sum(frame[3] for frame in self.frames if frame[1] == 0))


class Endpoint:
    """A connection and the harness's books on it."""

    def __init__(self, role: Role, browser: bool) -> None:
        self.conn = H2Connection(role)
        self.out = Pipe()
        if browser:
            self.conn.initiate(
                settings=((_INITIAL_WINDOW, STREAM_RECV_WINDOW),))
            self.conn.send_window_update(
                0, SESSION_RECV_WINDOW - DEFAULT_WINDOW)
        else:
            self.conn.initiate()
        self.connection_window = (SESSION_RECV_WINDOW if browser
                                  else DEFAULT_WINDOW)
        self.stream_windows: Dict[int, int] = {}
        self.accepted = Counter()           # flow-controlled, by stream
        self.bodies: Dict[int, bytearray] = {}
        self.ended = set()
        #: Every stream that has had an entry, in the order it got one.
        self.opened: List[int] = []
        #: WINDOW_UPDATE increments sent, by closed stream: frozen from
        #: the first check that found the stream without an entry.
        self.closed_updates: Dict[int, int] = {}

    def flush(self) -> None:
        self.out.emit(self.conn.data_to_send())


class Link:
    """The pair, the schedule's operations and the invariants."""

    def __init__(self, client_browser: bool, server_browser: bool) -> None:
        self.client = Endpoint(Role.CLIENT, client_browser)
        self.server = Endpoint(Role.SERVER, server_browser)
        self.peer = {id(self.client): self.server,
                     id(self.server): self.client}
        #: ``stream id -> (who receives the body, the body)``
        self.transfers: Dict[int, Tuple[Endpoint, bytes]] = {}
        self.reset = set()
        self.large_bodies = 0
        for end in (self.client, self.server):
            end.flush()
        self.run_dry()
        # The session-window raise is part of what was advertised, not
        # an answer to anything received.
        for end in (self.client, self.server):
            end.out.sent_updates.clear()
        self.check()

    def end(self, name: str) -> Endpoint:
        return self.client if name == "client" else self.server

    # -- the schedule's operations -------------------------------------

    def body(self, stream_id: int, size: int, window: int) -> bytes:
        if size > LARGE:
            self.large_bodies += 1
            if self.large_bodies > 2:
                size %= 200_001
        size = min(size, FRAMES_PER_TINY_BODY * window)
        start = stream_id * 7 % 251
        return _PATTERN[start:start + size]

    def open(self, kind: str, size: int, pad: int) -> None:
        if len(self.transfers) >= MAX_STREAMS:
            return
        client = self.client.conn
        stream_id = client.get_next_stream_id()
        self.client.opened.append(stream_id)
        if kind == "download":
            window = client.local_settings.initial_window_size
            self.transfers[stream_id] = (
                self.client, self.body(stream_id, size, window))
            client.send_headers(stream_id, REQUEST, end_stream=True)
        else:
            window = client.remote_settings.initial_window_size
            if kind == "padded":
                size %= 16_000  # one frame, padding and all
            body = self.body(stream_id, size, window)
            self.transfers[stream_id] = (self.server, body)
            client.send_headers(stream_id, REQUEST, end_stream=False)
            padded = fr.DataFrame(stream_id=stream_id, data=body,
                                  flags=fr.FLAG_END_STREAM,
                                  pad_length=pad)
            length = padded.flow_controlled_length
            stream = client._streams[stream_id]
            if (kind == "padded" and pad and length <= 16_384
                    and not client._send_queue
                    and length <= min(client.connection_send_window,
                                      stream.send_window)):
                # A peer that pads: the connection never does, so the
                # frame is written by hand against the same windows.
                client.connection_send_window -= length
                stream.send_window -= length
                client._advance(stream, StreamInput.SEND_DATA)
                client._advance(stream, StreamInput.SEND_END_STREAM)
                self.client.flush()
                self.client.out.emit(padded.serialize())
            else:
                client.send_data(stream_id, body, end_stream=True)
        self.client.flush()

    def deliver(self, sender: Endpoint, amount: int) -> None:
        """Move some of the sender's bytes across and let both sides
        act on what they mean."""
        if not sender.out.buffer:
            return
        receiver = self.peer[id(sender)]
        piece = sender.out.take(1 + amount % len(sender.out.buffer))
        for event in receiver.conn.receive_data(piece):
            self.react(receiver, event)
        receiver.flush()

    def deliver_all(self, sender: Endpoint) -> None:
        self.deliver(sender, len(sender.out.buffer) - 1)

    def react(self, end: Endpoint, event: ev.Event) -> None:
        kind = type(event)
        if kind is ev.DataReceived:
            end.accepted[event.stream_id] += event.flow_controlled_length
            end.bodies.setdefault(event.stream_id, bytearray()) \
                .extend(event.data)
        elif kind is ev.StreamReset:
            # A stream dies of a reset the schedule asked for, or of
            # frames that crossed one -- never of flow control.
            assert event.error_code is not ErrorCode.FLOW_CONTROL_ERROR
            self.reset.add(event.stream_id)
        elif kind is ev.StreamEnded:
            end.ended.add(event.stream_id)
        elif kind is ev.RequestReceived:
            end.opened.append(event.stream_id)
        if end is self.server and kind in (ev.RequestReceived,
                                           ev.StreamEnded):
            self.serve(event)

    def serve(self, event: ev.Event) -> None:
        conn, stream_id = self.server.conn, event.stream_id
        transfer = self.transfers.get(stream_id)
        if transfer is None or stream_id not in conn._streams:
            return
        receiver, body = transfer
        if type(event) is ev.RequestReceived:
            if receiver is self.client:
                conn.send_headers(stream_id, RESPONSE)
                conn.send_data(stream_id, body, end_stream=True)
        elif receiver is self.server:  # an upload, now whole
            conn.send_headers(stream_id, RESPONSE, end_stream=True)

    def rst(self, end: Endpoint, index: int) -> None:
        known = sorted(end.opened)
        if known:
            stream_id = known[index % len(known)]
            self.reset.add(stream_id)
            end.conn.send_rst_stream(stream_id)
            end.flush()

    def resize(self, end: Endpoint, window: int) -> None:
        """SETTINGS_INITIAL_WINDOW_SIZE changed with transfers under
        way.  Streams that exist keep their windows on both sides; for
        the next one to agree too, no request may be in flight when the
        server's change takes effect, and the client must have read it
        before it opens another."""
        if end is self.server:
            self.deliver_all(self.client)
            self.check()  # the streams that made know their windows
        end.conn._outbound += fr.SettingsFrame(
            settings=((_INITIAL_WINDOW, window),)).serialize()
        end.conn.local_settings.apply(_INITIAL_WINDOW, window)
        end.flush()
        if end is self.server:
            self.deliver_all(self.server)

    def run_dry(self) -> None:
        for _ in range(200_000):
            if not (self.client.out.buffer or self.server.out.buffer):
                return
            for end in (self.client, self.server):
                self.deliver_all(end)
        raise AssertionError("the link never went quiet")

    # -- the invariants ---------------------------------------------------

    def check(self) -> None:
        for receiver in (self.client, self.server):
            sender = self.peer[id(receiver)]
            conn = receiver.conn
            owed = conn._recv_unacked
            advertised = receiver.connection_window
            assert conn.connection_recv_window == advertised - owed >= 0
            assert 2 * owed < advertised
            assert receiver.out.sent_updates[0] + owed == \
                sender.out.arrived_data
            data, updates = sender.out.in_flight()[0], \
                receiver.out.in_flight()[1]
            assert sender.conn.connection_send_window == \
                conn.connection_recv_window - data - updates
            assert sender.conn.connection_send_window >= 0
            for stream_id, stream in conn._streams.items():
                assert stream.state is not StreamState.CLOSED
                advertised = receiver.stream_windows.setdefault(
                    stream_id, conn.local_settings.initial_window_size)
                owed = stream.recv_unacked
                assert stream.recv_window == advertised - owed >= 0
                assert receiver.out.sent_updates[stream_id] + owed == \
                    receiver.accepted[stream_id]
                assert 2 * owed < advertised
                assert stream.send_window >= 0
            for stream_id in receiver.opened:
                if stream_id in conn._streams:
                    continue
                sent = receiver.out.sent_updates[stream_id]
                assert receiver.closed_updates.setdefault(
                    stream_id, sent) == sent
                assert sent <= receiver.accepted[stream_id]

    def check_complete(self) -> None:
        """Nothing in flight: every transfer nobody reset is whole."""
        for stream_id, (receiver, body) in self.transfers.items():
            if stream_id in self.reset:
                continue
            assert stream_id in receiver.ended, \
                f"stream {stream_id} stalled with " \
                f"{len(receiver.bodies.get(stream_id, b''))} of " \
                f"{len(body)} bytes"
            assert bytes(receiver.bodies.get(stream_id, b"")) == body
            assert stream_id not in self.client.conn._streams  # closed
            assert stream_id not in self.server.conn._streams
        for end in (self.client, self.server):
            assert all(entry[0] not in end.conn._streams
                       for entry in end.conn._send_queue)

    def step(self, op) -> None:
        kind = op[0]
        if kind == "open":
            self.open(*op[1:])
        elif kind == "deliver":
            self.deliver(self.end(op[1]), op[2])
        elif kind == "rst":
            self.rst(self.end(op[1]), op[2])
        else:
            assert kind == "resize"
            self.resize(self.end(op[1]), op[2])
        self.check()

    # -- what must still be refused -----------------------------------

    def violate(self, violation: str) -> None:
        """Feed the server one bad frame behind a fresh open stream."""
        client, server = self.client.conn, self.server.conn
        stream_id = client.get_next_stream_id()
        client.send_headers(stream_id, REQUEST, end_stream=False)
        self.client.flush()
        self.run_dry()
        code = ErrorCode.PROTOCOL_ERROR
        if violation == "data-on-stream-0":
            frame = fr.DataFrame(stream_id=0, data=b"x")
        elif violation == "data-on-unknown-stream":
            frame = fr.DataFrame(stream_id=stream_id + 2, data=b"x")
        elif violation == "zero-increment-connection":
            frame = fr.WindowUpdateFrame(stream_id=0, increment=0)
        elif violation == "zero-increment-stream":
            frame = fr.WindowUpdateFrame(stream_id=stream_id, increment=0)
        else:
            assert violation == "connection-window-overflow"
            code = ErrorCode.FLOW_CONTROL_ERROR
            frame = fr.DataFrame(
                stream_id=stream_id,
                data=bytes(server.connection_recv_window + 1))
        with pytest.raises(H2ConnectionError) as raised:
            server.receive_data(frame.serialize())
        assert raised.value.code is code
        goaway = fr.parse_frames(server.data_to_send())[0][-1]
        assert type(goaway) is fr.GoAwayFrame and goaway.error_code is code


VIOLATIONS = ["data-on-stream-0", "data-on-unknown-stream",
              "zero-increment-connection", "zero-increment-stream",
              "connection-window-overflow"]
_ends = st.sampled_from(["client", "server"])
_sizes = st.one_of(
    st.integers(0, 200_000),
    st.sampled_from([0, 1, 16_384, 32_767, 32_768, 65_535, 65_536,
                     3 * MiB, 3 * MiB + 1, 8 * MiB]),
)
_windows = st.sampled_from([1, 2, 3, 1000, 16_384, DEFAULT_WINDOW, MiB,
                            STREAM_RECV_WINDOW])
_open = st.tuples(
    st.just("open"),
    st.sampled_from(["download", "download", "upload", "padded"]),
    _sizes, st.integers(0, 255),
)
_deliver = st.tuples(st.just("deliver"), _ends, st.integers(0, 2 ** 24))
_between = st.one_of(
    _deliver, _deliver, _deliver, _deliver, _deliver,
    st.tuples(st.just("rst"), _ends, st.integers(0, MAX_STREAMS)),
    st.tuples(st.just("resize"), _ends, _windows),
)
#: Each stream is opened and then a few other things happen.
_rounds = st.lists(st.tuples(_open, st.lists(_between, max_size=5)),
                   min_size=1, max_size=MAX_STREAMS)


@settings(max_examples=100, deadline=None)
@given(client_browser=st.booleans(), server_browser=st.booleans(),
       rounds=_rounds, violation=st.sampled_from(VIOLATIONS))
@example(client_browser=True, server_browser=False, violation=VIOLATIONS[4],
         rounds=[(("open", "download", 8 * MiB, 0), [])] * 2
         + [(("open", "upload", 3 * MiB + 1, 0), [])])
@example(client_browser=False, server_browser=False, violation=VIOLATIONS[1],
         rounds=[(("open", kind, 150_000, 3), [("deliver", "server", 70_000)])
                 for kind in ("download", "upload", "padded", "download")]
         * (MAX_STREAMS // 4))
@example(client_browser=False, server_browser=True, violation=VIOLATIONS[0],
         rounds=[
             (("open", "download", 1200, 0),
              [("resize", "client", 3), ("resize", "server", 2)]),
             (("open", "download", 1200, 0), []),
             (("open", "padded", 700, 9),
              [("deliver", "client", 40), ("rst", "client", 0),
               ("resize", "client", MiB)]),
             (("open", "download", MiB, 0), []),
         ])
def test_a_pair_under_a_random_schedule(client_browser, server_browser,
                                        rounds, violation):
    """Bodies of 0 B to 8 MiB on up to 40 streams, padded DATA, input
    split at arbitrary offsets, resets from either side mid-body,
    streams that close owed bytes, SETTINGS_INITIAL_WINDOW_SIZE lowered
    and raised mid-transfer, default and browser-sized windows on
    either side."""
    link = Link(client_browser, server_browser)
    for opening, others in rounds:
        link.step(opening)
        for op in others:
            link.step(op)
    link.run_dry()
    link.check()
    link.check_complete()
    link.violate(violation)


def _updates(end: Endpoint) -> List[Tuple[int, int]]:
    """The WINDOW_UPDATEs in an endpoint's undelivered output."""
    frames, rest = fr.parse_frames(bytes(end.out.buffer))
    assert rest == b""
    return [(frame.stream_id, frame.increment) for frame in frames
            if type(frame) is fr.WindowUpdateFrame]


def test_a_browser_sized_client_is_sent_a_body_in_one_flight():
    """Under 6 MiB the server never waits: the whole body leaves in
    full frames at once, and the client answers with the stream's
    first 3 MiB alone."""
    link = Link(client_browser=True, server_browser=False)
    link.open("download", 5 * MiB, 0)
    link.deliver_all(link.client)
    assert not link.server.conn._send_queue
    frames, rest = fr.parse_frames(bytes(link.server.out.buffer))
    assert rest == b"" and type(frames[0]) is fr.HeadersFrame
    assert [len(frame.data) for frame in frames[1:]] == [16_384] * 320
    link.deliver_all(link.server)
    assert _updates(link.client) == [(1, 3 * MiB)]
    assert link.client.conn._recv_unacked == 5 * MiB
    link.run_dry()
    link.check()
    link.check_complete()


def _exchange(link: Link) -> List[Tuple[int, int]]:
    """Whole flights each way until done; the client's updates."""
    updates = []
    while link.client.out.buffer or link.server.out.buffer:
        link.deliver_all(link.client)
        link.deliver_all(link.server)
        updates += _updates(link.client)
        link.check()
    link.check_complete()
    return updates


def test_a_browser_sized_client_reads_8_mib_for_three_updates():
    """The stream's bytes go back at 3 MiB and at 6 MiB (which lets
    the last 2 MiB leave), the session's at 7.5 MiB."""
    link = Link(client_browser=True, server_browser=False)
    link.open("download", 8 * MiB, 0)
    assert _exchange(link) == [
        (1, 3 * MiB), (1, 3 * MiB), (0, SESSION_RECV_WINDOW // 2),
    ]
    assert link.client.conn._recv_unacked == MiB // 2
    # Stream 1 closed owing its last 2 MiB, and nothing is kept for it.
    assert 1 not in link.client.conn._streams
    assert link.client.accepted[1] - link.client.out.sent_updates[1] \
        == 2 * MiB


def test_default_windows_move_a_body_half_a_window_at_a_time():
    """Every update returns at least half a window, so a 200 000-byte
    body costs at most six per window."""
    link = Link(client_browser=False, server_browser=False)
    link.open("download", 200_000, 0)
    updates = _exchange(link)
    for target in (0, 1):
        increments = [inc for stream_id, inc in updates
                      if stream_id == target]
        assert 0 < len(increments) <= 200_000 // 32_768
        assert all(32_768 <= inc <= DEFAULT_WINDOW for inc in increments)
    client = link.client.conn
    assert sum(inc for stream_id, inc in updates if not stream_id) \
        + client._recv_unacked == 200_000
