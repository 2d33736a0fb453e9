"""Tests for the sans-IO connection state machine."""

from collections import deque

import pytest

from repro.h2 import (
    CONNECTION_PREFACE,
    ErrorCode,
    H2Connection,
    H2ConnectionError,
    H2StreamError,
    Role,
    StreamState,
)
from repro.h2 import events as ev
from repro.h2.hpack import HpackEncoder
from repro.h2.settings import SettingId
from tests.h2_reference_frames import (
    ContinuationFrame,
    DataFrame,
    FLAG_ACK,
    FLAG_END_HEADERS,
    FLAG_END_STREAM,
    GoAwayFrame,
    HeadersFrame,
    PingFrame,
    PriorityFrame,
    PushPromiseFrame,
    RstStreamFrame,
    SettingsFrame,
    TYPE_WINDOW_UPDATE,
    UnknownFrame,
    WindowUpdateFrame,
    parse_frames,
)

from tests.test_h2_body_path import ReferenceReceiver

REQUEST = [
    (":method", "GET"),
    (":scheme", "https"),
    (":authority", "www.example.com"),
    (":path", "/"),
]
RESPONSE = [(":status", "200"), ("content-type", "text/html")]


def pair(server_origin_set=(), client_origin_aware=True,
         server_origin_aware=True):
    """A connected (client, server) pair with settings exchanged."""
    client = H2Connection(Role.CLIENT, origin_aware=client_origin_aware)
    server = H2Connection(
        Role.SERVER,
        origin_aware=server_origin_aware,
        origin_set=server_origin_set,
    )
    client.initiate()
    server.initiate()
    client_events = pump(server, client)
    server_events = pump(client, server)
    # Flush the SETTINGS ACKs both ways.
    pump(server, client)
    pump(client, server)
    return client, server, client_events, server_events


def pump(sender, receiver):
    """Deliver the sender's queued bytes to the receiver."""
    data = sender.data_to_send()
    if not data:
        return []
    return receiver.receive_data(data)


class TestHandshake:
    def test_client_emits_preface(self):
        client = H2Connection(Role.CLIENT)
        client.initiate()
        assert client.data_to_send().startswith(CONNECTION_PREFACE)

    def test_server_rejects_bad_preface(self):
        server = H2Connection(Role.SERVER)
        server.initiate()
        with pytest.raises(H2ConnectionError):
            server.receive_data(b"GET / HTTP/1.1\r\n\r\n")

    def test_settings_exchange(self):
        _, _, client_events, server_events = pair()
        assert any(isinstance(e, ev.SettingsReceived) for e in client_events)
        assert any(isinstance(e, ev.SettingsReceived) for e in server_events)

    def test_double_initiate_rejected(self):
        client = H2Connection(Role.CLIENT)
        client.initiate()
        with pytest.raises(H2ConnectionError):
            client.initiate()

    def test_preface_accepted_in_pieces(self):
        client = H2Connection(Role.CLIENT)
        server = H2Connection(Role.SERVER)
        client.initiate()
        server.initiate()
        data = client.data_to_send()
        assert server.receive_data(data[:10]) == []
        events = server.receive_data(data[10:])
        assert events == [ev.SettingsReceived(settings=())]


class TestRequestResponse:
    def test_get_roundtrip(self):
        client, server, _, _ = pair()
        stream_id = client.get_next_stream_id()
        client.send_headers(stream_id, REQUEST, end_stream=True)
        server_events = pump(client, server)
        requests = [e for e in server_events
                    if isinstance(e, ev.RequestReceived)]
        assert len(requests) == 1
        assert requests[0].headers == REQUEST
        assert requests[0].end_stream

        server.send_headers(stream_id, RESPONSE)
        server.send_data(stream_id, b"<html></html>", end_stream=True)
        client_events = pump(server, client)
        assert any(isinstance(e, ev.ResponseReceived) for e in client_events)
        data = [e for e in client_events if isinstance(e, ev.DataReceived)]
        assert data[0].data == b"<html></html>"
        assert any(isinstance(e, ev.StreamEnded) for e in client_events)

    def test_client_stream_ids_are_odd_and_increasing(self):
        client, _, _, _ = pair()
        ids = [client.get_next_stream_id() for _ in range(3)]
        assert ids == [1, 3, 5]

    def test_multiplexed_requests(self):
        client, server, _, _ = pair()
        sid_a = client.get_next_stream_id()
        sid_b = client.get_next_stream_id()
        client.send_headers(sid_a, REQUEST, end_stream=True)
        client.send_headers(sid_b, REQUEST, end_stream=True)
        events = pump(client, server)
        received = [e.stream_id for e in events
                    if isinstance(e, ev.RequestReceived)]
        assert received == [sid_a, sid_b]
        # Respond in reverse order; streams are independent.
        server.send_headers(sid_b, RESPONSE, end_stream=True)
        server.send_headers(sid_a, RESPONSE, end_stream=True)
        client_events = pump(server, client)
        done = [e.stream_id for e in client_events
                if isinstance(e, ev.StreamEnded)]
        assert done == [sid_b, sid_a]

    def test_stream_states_progress(self):
        client, server, _, _ = pair()
        stream_id = client.get_next_stream_id()
        client.send_headers(stream_id, REQUEST, end_stream=True)
        assert client._streams[stream_id].state is \
            StreamState.HALF_CLOSED_LOCAL
        pump(client, server)
        assert server._streams[stream_id].state is \
            StreamState.HALF_CLOSED_REMOTE
        server.send_headers(stream_id, RESPONSE, end_stream=True)
        assert stream_id not in server._streams  # closed
        pump(server, client)
        assert stream_id not in client._streams

    def test_large_body_chunked_to_max_frame_size(self):
        client, server, _, _ = pair()
        stream_id = client.get_next_stream_id()
        client.send_headers(stream_id, REQUEST, end_stream=True)
        pump(client, server)
        body = b"x" * 40_000  # > 2 frames at 16KB
        server.send_headers(stream_id, RESPONSE)
        server.send_data(stream_id, body, end_stream=True)
        events = pump(server, client)
        chunks = [e.data for e in events if isinstance(e, ev.DataReceived)]
        assert len(chunks) == 3
        assert b"".join(chunks) == body


class TestOrigin:
    def test_server_advertises_origin_set_on_initiate(self):
        origins = ("https://example.com", "https://cdn.example.com")
        client, server, client_events, _ = pair(server_origin_set=origins)
        received = [e for e in client_events
                    if isinstance(e, ev.OriginReceived)]
        assert len(received) == 1
        assert received[0].origins == origins
        assert client.remote_origin_set == set(origins)

    def test_send_origin_replaces_set(self):
        client, server, _, _ = pair(server_origin_set=("https://a.com",))
        server.send_origin(("https://b.com",))
        pump(server, client)
        assert client.remote_origin_set == {"https://b.com"}

    def test_client_cannot_send_origin(self):
        client, _, _, _ = pair()
        with pytest.raises(H2ConnectionError):
            client.send_origin(("https://a.com",))

    def test_unaware_client_ignores_origin(self):
        client, server, client_events, _ = pair(
            server_origin_set=("https://a.com",),
            client_origin_aware=False,
        )
        assert not any(isinstance(e, ev.OriginReceived)
                       for e in client_events)
        unknown = [e for e in client_events
                   if isinstance(e, ev.UnknownFrameReceived)]
        assert len(unknown) == 1
        assert client.remote_origin_set == set()

    def test_connection_survives_ignored_origin(self):
        # The fail-open behaviour §6.7's middlebox violated.
        client, server, _, _ = pair(
            server_origin_set=("https://a.com",),
            client_origin_aware=False,
        )
        stream_id = client.get_next_stream_id()
        client.send_headers(stream_id, REQUEST, end_stream=True)
        events = pump(client, server)
        assert any(isinstance(e, ev.RequestReceived) for e in events)


class TestUnknownFrames:
    def test_unknown_frame_ignored_with_event(self):
        client, server, _, _ = pair()
        wire = UnknownFrame(stream_id=0, raw_type=0xEE,
                            raw_payload=b"abc").serialize()
        events = client.receive_data(wire)
        assert len(events) == 1
        assert isinstance(events[0], ev.UnknownFrameReceived)
        assert events[0].raw_type == 0xEE

    IGNORED = {
        "priority-on-an-open-stream":
            PriorityFrame(stream_id=1, dependency=0, weight=200),
        "priority-on-an-idle-stream":
            PriorityFrame(stream_id=7, dependency=1, exclusive=True),
    }

    @pytest.mark.parametrize("frame", IGNORED.values(), ids=IGNORED.keys())
    def test_ignored_frames_draw_no_reply(self, frame):
        """RFC 7540 §5.3 lets a receiver disregard PRIORITY: no event,
        nothing queued in reply, no stream changes state."""
        client = client_with_open_stream()
        assert client.receive_data(frame.serialize()) == []
        assert client.data_to_send() == b""
        assert client._streams[1].state is StreamState.HALF_CLOSED_LOCAL
        assert 7 not in client._streams

    def test_traffic_continues_after_unknown_frame(self):
        client, server, _, _ = pair()
        client.receive_data(
            UnknownFrame(stream_id=0, raw_type=0xEE).serialize()
        )
        stream_id = client.get_next_stream_id()
        client.send_headers(stream_id, REQUEST, end_stream=True)
        assert any(isinstance(e, ev.RequestReceived)
                   for e in pump(client, server))


class TestErrors:
    def test_data_on_stream_zero_is_fatal(self):
        client, _, _, _ = pair()
        wire = DataFrame(stream_id=0, data=b"x").serialize()
        with pytest.raises(H2ConnectionError):
            client.receive_data(wire)
        # A GOAWAY must have been queued.
        assert client.data_to_send()  # non-empty

    def test_data_for_unknown_stream_is_fatal(self):
        client, _, _, _ = pair()
        wire = DataFrame(stream_id=99, data=b"x").serialize()
        with pytest.raises(H2ConnectionError):
            client.receive_data(wire)

    def test_rst_stream_event(self):
        client, server, _, _ = pair()
        stream_id = client.get_next_stream_id()
        client.send_headers(stream_id, REQUEST, end_stream=True)
        pump(client, server)
        server.send_rst_stream(stream_id, ErrorCode.REFUSED_STREAM)
        events = pump(server, client)
        resets = [e for e in events if isinstance(e, ev.StreamReset)]
        assert resets[0].error_code is ErrorCode.REFUSED_STREAM
        assert stream_id not in client._streams

    def test_goaway_event(self):
        client, server, _, _ = pair()
        server.send_goaway(ErrorCode.ENHANCE_YOUR_CALM, debug=b"slow down")
        events = pump(server, client)
        goaways = [e for e in events if isinstance(e, ev.GoAwayReceived)]
        assert goaways[0].error_code is ErrorCode.ENHANCE_YOUR_CALM
        assert goaways[0].debug_data == b"slow down"

    def test_cannot_send_after_goaway(self):
        client, _, _, _ = pair()
        client.send_goaway()
        with pytest.raises(H2ConnectionError):
            client.send_headers(client.get_next_stream_id(), REQUEST)

    def test_zero_window_update_is_fatal(self):
        client, _, _, _ = pair()
        wire = WindowUpdateFrame(stream_id=0, increment=0).serialize()
        with pytest.raises(H2ConnectionError):
            client.receive_data(wire)

    def test_interleaved_frame_during_continuation_is_fatal(self):
        client, server, _, _ = pair()
        from repro.h2.hpack import HpackEncoder
        block = HpackEncoder().encode(REQUEST)
        headers = HeadersFrame(stream_id=1, flags=0, header_block=block[:3])
        ping = PingFrame()
        with pytest.raises(H2ConnectionError):
            server.receive_data(headers.serialize() + ping.serialize())

    def test_continuation_completes_header_block(self):
        client, server, _, _ = pair()
        from repro.h2.hpack import HpackEncoder
        block = HpackEncoder().encode(REQUEST)
        first = HeadersFrame(stream_id=1, flags=0, header_block=block[:3])
        rest = ContinuationFrame(stream_id=1, flags=FLAG_END_HEADERS,
                                 header_block=block[3:])
        events = server.receive_data(first.serialize() + rest.serialize())
        requests = [e for e in events if isinstance(e, ev.RequestReceived)]
        assert requests and requests[0].headers == REQUEST


class TestFlowControl:
    def test_send_window_decrements(self):
        client, server, _, _ = pair()
        stream_id = client.get_next_stream_id()
        client.send_headers(stream_id, REQUEST, end_stream=True)
        pump(client, server)
        before = server.connection_send_window
        server.send_headers(stream_id, RESPONSE)
        server.send_data(stream_id, b"x" * 1000, end_stream=True)
        assert server.connection_send_window == before - 1000

    def test_receiver_replenishes_windows(self):
        """Nothing comes back until half the window is consumed; then
        all of it does, in one update per window."""
        client, server, _, _ = pair()
        stream_id = client.get_next_stream_id()
        client.send_headers(stream_id, REQUEST, end_stream=True)
        pump(client, server)
        server.send_headers(stream_id, RESPONSE)
        reference = ReferenceReceiver()
        for size, owed in ((1000, 0), (31_767, 0), (1, 32_768), (1000, 0)):
            server.send_data(stream_id, b"x" * size)
            wire = server.data_to_send()
            frames, _ = parse_frames(wire)
            client.receive_data(wire)
            expected = [
                ev.WindowUpdated(reply.stream_id, reply.increment)
                for frame in frames if type(frame) is DataFrame
                for reply in reference.replies(frame)
            ]
            assert [e.delta for e in expected] == ([owed] * 2 if owed else [])
            assert pump(client, server) == expected
            assert client.connection_recv_window == \
                server.connection_send_window
            assert client._streams[stream_id].recv_window == \
                server._streams[stream_id].send_window

    def test_a_stream_that_closes_is_owed_nothing(self):
        """A stream closed with bytes unreturned gets no update; its
        bytes stay on the connection's count and go back with the next
        stream's."""
        client, server, _, _ = pair()

        def respond(size, end_stream):
            stream_id = client.get_next_stream_id()
            client.send_headers(stream_id, REQUEST, end_stream=True)
            pump(client, server)
            server.send_headers(stream_id, RESPONSE)
            server.send_data(stream_id, b"x" * size, end_stream=end_stream)
            pump(server, client)
            return client._streams.get(stream_id), pump(client, server)

        # END_STREAM on the very frame that reaches half the window.
        stream, updates = respond(32_768, end_stream=True)
        assert stream is None  # closed, and nothing is kept for it
        assert updates == [ev.WindowUpdated(0, 32_768)]
        stream, updates = respond(20_000, end_stream=True)
        assert stream is None and updates == []
        assert client._recv_unacked == 20_000
        stream, updates = respond(12_768, end_stream=False)
        assert updates == [ev.WindowUpdated(0, 32_768)]
        assert stream.recv_unacked == 12_768

    @pytest.mark.parametrize("window", [1, 2, 3, 1000])
    def test_half_of_an_even_window_is_reached_not_passed(self, window):
        client = H2Connection(Role.CLIENT)
        client.initiate(settings=[(int(SettingId.INITIAL_WINDOW_SIZE),
                                   window)])
        client.send_headers(1, REQUEST, end_stream=True)
        client.data_to_send()
        half = (window + 1) // 2
        for _ in range(3):
            for sent in range(1, half + 1):
                client.receive_data(
                    DataFrame(stream_id=1, data=b"x").serialize())
                owed = queued_frames(client)
                if sent < half:
                    assert owed == []
                    assert client._streams[1].recv_unacked == sent
            assert owed == [WindowUpdateFrame(stream_id=1, increment=half)]
            assert client._streams[1].recv_window == window

    def test_ping_is_acked(self):
        client, server, _, _ = pair()
        events = server.receive_data(
            PingFrame(opaque=b"abcdefgh").serialize())
        assert any(isinstance(e, ev.PingReceived) for e in events)
        client_events = pump(server, client)
        acks = [e for e in client_events if isinstance(e, ev.PingAcked)]
        assert acks[0].opaque == b"abcdefgh"


# -- the body path: DATA and WINDOW_UPDATE without Frame objects ----------
#
# ``H2Connection`` reads and writes these two frame types straight
# from/to wire bytes.  The Frame classes are the reference: every byte
# the connection emits must equal the ``serialize()`` of the frame
# sequence a Frame-object implementation would have produced, and every
# event must be the one the parsed Frame describes.

INITIAL_WINDOW = 65_535
MAX_FRAME = 16_384
BODY_SIZES = (0, 1, 16_383, 16_384, 16_385, 65_535, 200_000)
#: Queued ahead of the body under test in the interleaved variant: it
#: exhausts its own stream window with data left over, so the sender's
#: rotate-the-blocked-stream branch runs for every size of the second.
COMPANION = bytes(reversed(range(256))) * 400  # 102,400 bytes


def body_of(size):
    return (bytes(range(251)) * (size // 251 + 1))[:size]


class ReferenceSender:
    """Sender-side flow control as the pre-streaming connection did it:
    one ``DataFrame`` object per frame, the remainder re-sliced (copied)
    after each."""

    def __init__(self):
        self.connection_window = INITIAL_WINDOW
        self.windows = {}
        self.queue = deque()
        self.rotations = 0

    def send(self, stream_id, data):
        self.windows[stream_id] = INITIAL_WINDOW
        self.queue.append((stream_id, data))
        return self.drain()

    def window_update(self, frame):
        if frame.stream_id == 0:
            self.connection_window += frame.increment
        else:
            self.windows[frame.stream_id] += frame.increment
        return self.drain()

    def drain(self):
        frames = []
        skipped = 0
        while self.queue and skipped < len(self.queue):
            stream_id, data = self.queue[0]
            if data and self.connection_window <= 0:
                break
            if data and self.windows[stream_id] <= 0:
                self.queue.rotate(-1)
                self.rotations += 1
                skipped += 1
                continue
            budget = min(self.connection_window, self.windows[stream_id])
            chunk = data[: min(budget, MAX_FRAME)]
            rest = data[len(chunk):]
            self.connection_window -= len(chunk)
            self.windows[stream_id] -= len(chunk)
            frames.append(DataFrame(
                stream_id=stream_id,
                flags=0 if rest else FLAG_END_STREAM,
                data=chunk,
            ))
            skipped = 0
            if rest:
                self.queue[0] = (stream_id, rest)
            else:
                self.queue.popleft()
        return frames


def data_events(data_frames):
    events = []
    for frame in data_frames:
        events.append(ev.DataReceived(
            frame.stream_id, frame.data, frame.flow_controlled_length,
            frame.end_stream))
        if frame.end_stream:
            events.append(ev.StreamEnded(frame.stream_id))
    return events


def wire_of(frames):
    return b"".join(frame.serialize() for frame in frames)


def bodies_for(size, interleaved):
    """``[(stream_id, body)]`` in the order the server queues them."""
    if interleaved:
        return [(1, COMPANION), (3, body_of(size))]
    return [(1, body_of(size))]


def requesting_client(stream_count):
    """A client with ``stream_count`` requests sent and awaiting
    response DATA, and the bytes (preface, SETTINGS, requests) it
    put on the wire: ``(client, wire)``."""
    client = H2Connection(Role.CLIENT)
    client.initiate()
    for _ in range(stream_count):
        client.send_headers(client.get_next_stream_id(), REQUEST,
                            end_stream=True)
    return client, client.data_to_send()


def receiving_client(stream_count):
    return requesting_client(stream_count)[0]


def sending_server(bodies):
    """A server with every body queued and its first flight drained:
    returns ``(server, first_flight_wire)``."""
    server = H2Connection(Role.SERVER)
    server.initiate()
    server.receive_data(requesting_client(len(bodies))[1])
    for stream_id, _ in bodies:
        server.send_headers(stream_id, RESPONSE)
    server.data_to_send()
    for stream_id, body in bodies:
        server.send_data(stream_id, body, end_stream=True)
    return server, server.data_to_send()


def run_exchange(bodies):
    """Pump a real server/client pair to completion next to the
    reference sender and receiver; returns everything either side put
    on the wire."""
    reference = ReferenceSender()
    receiver = ReferenceReceiver()
    expected = []
    for stream_id, body in bodies:
        expected += reference.send(stream_id, body)
    server, wire = sending_server(bodies)
    client = receiving_client(len(bodies))
    server_wire, client_wire = [], []
    while wire:
        assert wire == wire_of(expected)
        server_wire.append(wire)
        assert client.receive_data(wire) == data_events(expected)
        replies = [reply for frame in expected
                   for reply in receiver.replies(frame)]
        reply_wire = client.data_to_send()
        assert reply_wire == wire_of(replies)
        client_wire.append(reply_wire)
        expected = []
        for reply in replies:
            expected += reference.window_update(reply)
        if not reply_wire:
            break
        assert server.receive_data(reply_wire) == [
            ev.WindowUpdated(reply.stream_id, reply.increment)
            for reply in replies
        ]
        wire = server.data_to_send()
    assert not expected and not reference.queue
    assert not server._streams and not client._streams  # all closed
    # What the client still owes is what the server is still short of.
    owed = receiver.consumed[0]
    assert owed < INITIAL_WINDOW / 2
    assert client.connection_recv_window == INITIAL_WINDOW - owed
    assert server.connection_send_window == INITIAL_WINDOW - owed
    assert client.connection_send_window == INITIAL_WINDOW
    assert server.connection_recv_window == INITIAL_WINDOW
    for endpoint in (client, server):
        assert not endpoint._recv_buffer and not endpoint._send_queue
    return b"".join(server_wire), b"".join(client_wire), reference


def feed_split(endpoint, wire, split):
    """Feed ``wire`` in two reads; returns what a caller can observe."""
    view = memoryview(wire)
    events = endpoint.receive_data(view[:split])
    sent = endpoint.data_to_send()
    events += endpoint.receive_data(view[split:])
    sent += endpoint.data_to_send()
    return events, sent, bytes(endpoint._recv_buffer)


@pytest.mark.parametrize("interleaved", (False, True),
                         ids=("alone", "interleaved"))
@pytest.mark.parametrize("size", BODY_SIZES)
class TestBodyPathAgainstFrameClasses:
    def test_emitted_bytes_and_events_match_the_frame_classes(
            self, size, interleaved):
        bodies = bodies_for(size, interleaved)
        server_wire, _, reference = run_exchange(bodies)
        received = {stream_id: b"" for stream_id, _ in bodies}
        frames, rest = parse_frames(server_wire)
        assert rest == b""
        for frame in frames:
            assert type(frame) is DataFrame
            received[frame.stream_id] += frame.data
        assert received == dict(bodies)
        if interleaved:
            # The second stream got frames out while the first, blocked
            # on its own window, still had data queued.
            order = [frame.stream_id for frame in frames]
            assert reference.rotations
            assert order.index(3) < len(order) - order[::-1].index(1) - 1

    def test_data_split_at_every_offset_reads_the_same(
            self, size, interleaved):
        """The server's bytes, cut anywhere in their first 64 KB, give
        the client the same events, replies and buffered tail.

        The receiver handles a frame the same whatever stream it is on,
        so the single-stream sweep is the exhaustive one; interleaved,
        the sweep covers 16 KB from where the streams start to mix.
        What interleaving does to the
        *sender* under split reads is swept in full by the next test.
        """
        bodies = bodies_for(size, interleaved)
        server_wire, _, _ = run_exchange(bodies)
        sweep = 64 * 1024
        if interleaved:
            # Skip the companion's first window: four full frames.
            server_wire = server_wire[INITIAL_WINDOW + 4 * 9:]
            sweep = 16 * 1024
        wire = server_wire[: sweep + 64]
        whole = feed_split(receiving_client(len(bodies)), wire, len(wire))
        assert whole[0]
        for split in range(min(len(wire), sweep) + 1):
            assert feed_split(
                receiving_client(len(bodies)), wire, split
            ) == whole, f"split at {split}"

    def test_window_updates_split_at_every_offset_read_the_same(
            self, size, interleaved):
        """The client's bytes, cut anywhere, draw the same events and
        the same DATA out of a server with the bodies queued."""
        bodies = bodies_for(size, interleaved)
        _, client_wire, _ = run_exchange(bodies)
        server, _ = sending_server(bodies)
        whole = feed_split(server, client_wire, len(client_wire))
        for split in range(len(client_wire) + 1):
            server, _ = sending_server(bodies)
            assert feed_split(server, client_wire, split) == whole, \
                f"split at {split}"


def raw_frame(frame_type, stream_id, payload, flags=0):
    """Wire bytes for a frame the typed classes refuse to build."""
    return UnknownFrame(stream_id=stream_id, flags=flags,
                        raw_type=frame_type, raw_payload=payload).serialize()


def client_with_open_stream(initial_window=None):
    """A client awaiting response DATA on stream 1, with server push
    disabled as browsers now ship it, optionally having advertised a
    small per-stream receive window."""
    client = H2Connection(Role.CLIENT)
    settings = [(int(SettingId.ENABLE_PUSH), 0)]
    if initial_window is not None:
        settings.append((int(SettingId.INITIAL_WINDOW_SIZE), initial_window))
    client.initiate(settings=settings)
    client.send_headers(1, REQUEST, end_stream=True)
    client.data_to_send()
    return client


def queued_frames(endpoint):
    frames, rest = parse_frames(endpoint.data_to_send())
    assert rest == b""
    return frames


class TestBodyPathErrors:
    """Every check on DATA and WINDOW_UPDATE, by error code, by the
    GOAWAY / RST_STREAM it queues and by the windows it leaves."""

    CONNECTION_ERRORS = {
        "data-on-stream-0": (
            DataFrame(stream_id=0, data=b"x").serialize(),
            ErrorCode.PROTOCOL_ERROR),
        "data-on-unknown-stream": (
            DataFrame(stream_id=99, data=b"x").serialize(),
            ErrorCode.PROTOCOL_ERROR),
        "data-over-connection-window": (
            DataFrame(stream_id=1,
                      data=b"x" * (INITIAL_WINDOW + 1)).serialize(),
            ErrorCode.FLOW_CONTROL_ERROR),
        "pad-length-past-payload": (
            raw_frame(0x0, 1, b"\x09abc", flags=0x8),
            ErrorCode.PROTOCOL_ERROR),
        "window-update-of-3-bytes": (
            raw_frame(TYPE_WINDOW_UPDATE, 0, b"\x00\x00\x01"),
            ErrorCode.FRAME_SIZE_ERROR),
        "window-update-of-5-bytes": (
            raw_frame(TYPE_WINDOW_UPDATE, 1, b"\x00\x00\x00\x01\x00"),
            ErrorCode.FRAME_SIZE_ERROR),
        "zero-increment-on-stream-0": (
            WindowUpdateFrame(stream_id=0, increment=0).serialize(),
            ErrorCode.PROTOCOL_ERROR),
        "zero-increment-on-a-stream": (
            WindowUpdateFrame(stream_id=1, increment=0).serialize(),
            ErrorCode.PROTOCOL_ERROR),
        "zero-increment-behind-reserved-bit": (
            raw_frame(TYPE_WINDOW_UPDATE, 0, b"\x80\x00\x00\x00"),
            ErrorCode.PROTOCOL_ERROR),
        "push-promise-with-push-disabled": (
            PushPromiseFrame(stream_id=1, flags=FLAG_END_HEADERS,
                             promised_stream_id=2,
                             header_block=b"\x82\x87\x84").serialize(),
            ErrorCode.PROTOCOL_ERROR),
    }

    @pytest.mark.parametrize("wire, code", CONNECTION_ERRORS.values(),
                             ids=CONNECTION_ERRORS.keys())
    def test_connection_errors(self, wire, code):
        client = client_with_open_stream()
        with pytest.raises(H2ConnectionError) as raised:
            client.receive_data(wire)
        assert raised.value.code is code
        assert queued_frames(client) == [
            GoAwayFrame(last_stream_id=0, error_code=code)
        ]
        stream = client._streams[1]
        assert client.connection_recv_window == INITIAL_WINDOW
        assert client.connection_send_window == INITIAL_WINDOW
        assert stream.recv_window == stream.send_window == INITIAL_WINDOW
        assert not client._recv_buffer  # the bad frame is consumed

    def test_data_on_a_closed_stream_resets_it(self):
        client = client_with_open_stream()
        client.receive_data(DataFrame(
            stream_id=1, flags=FLAG_END_STREAM, data=b"done").serialize())
        client.data_to_send()
        assert 1 not in client._streams  # closed
        events = client.receive_data(
            DataFrame(stream_id=1, data=b"late").serialize())
        assert events == [
            ev.StreamReset(1, ErrorCode.STREAM_CLOSED)
        ]
        assert queued_frames(client) == [
            RstStreamFrame(stream_id=1, error_code=ErrorCode.STREAM_CLOSED)
        ]
        # The connection is charged for the refused frame and will
        # return it with the rest; the stream stays closed.
        assert client.connection_recv_window == INITIAL_WINDOW - 8
        assert client._recv_unacked == 8
        assert 1 not in client._streams

    def test_data_over_the_stream_window_resets_the_stream(self):
        client = client_with_open_stream(initial_window=1000)
        events = client.receive_data(
            DataFrame(stream_id=1, data=b"x" * 1001).serialize())
        assert events == [
            ev.StreamReset(1, ErrorCode.FLOW_CONTROL_ERROR)
        ]
        assert queued_frames(client) == [
            RstStreamFrame(stream_id=1,
                           error_code=ErrorCode.FLOW_CONTROL_ERROR)
        ]
        assert client.connection_recv_window == INITIAL_WINDOW - 1001
        assert 1 not in client._streams  # reset, so closed

    def test_padding_counts_against_flow_control(self):
        """Ten bytes of data cannot overflow a 100-byte window; the 200
        bytes of padding around them do (RFC 7540 §6.9.1)."""
        frame = DataFrame(stream_id=1, data=b"x" * 10, pad_length=200)
        assert frame.flow_controlled_length == 211
        client = client_with_open_stream(initial_window=100)
        events = client.receive_data(frame.serialize())
        assert events == [
            ev.StreamReset(1, ErrorCode.FLOW_CONTROL_ERROR)
        ]
        assert queued_frames(client) == [
            RstStreamFrame(stream_id=1,
                           error_code=ErrorCode.FLOW_CONTROL_ERROR)
        ]
        assert client.connection_recv_window == INITIAL_WINDOW - 211
        assert 1 not in client._streams  # reset, so closed

    @pytest.mark.parametrize("size, owed", [(7, 0), (32_747, 32_768)])
    def test_padded_data_that_fits_is_delivered_without_padding(
            self, size, owed):
        """... and its padding is consumed like its data: 20 bytes of
        it and the pad-length octet carry the larger frame to half the
        connection window."""
        frame = DataFrame(stream_id=1, flags=FLAG_END_STREAM,
                          data=b"x" * size, pad_length=20)
        client = client_with_open_stream()
        assert client.receive_data(frame.serialize()) == [
            ev.DataReceived(1, b"x" * size, size + 21, True),
            ev.StreamEnded(1),
        ]
        replies = ReferenceReceiver().replies(frame)
        assert queued_frames(client) == replies
        assert [reply.increment for reply in replies] == [owed] * bool(owed)
        assert client.connection_recv_window + client._recv_unacked == \
            INITIAL_WINDOW

    def test_window_update_for_an_idle_stream_is_a_connection_error(self):
        """RFC 7540 §5.1: an idle stream receives HEADERS and PRIORITY
        and nothing else."""
        client = client_with_open_stream()
        with pytest.raises(H2ConnectionError) as raised:
            client.receive_data(
                WindowUpdateFrame(stream_id=99, increment=5).serialize())
        assert raised.value.code is ErrorCode.PROTOCOL_ERROR
        assert queued_frames(client) == [
            GoAwayFrame(last_stream_id=0, error_code=ErrorCode.PROTOCOL_ERROR)
        ]
        assert 99 not in client._streams
        assert client._streams[1].send_window == INITIAL_WINDOW

    def test_window_update_for_a_closed_stream_is_ignored(self):
        client = client_with_open_stream()
        client.receive_data(DataFrame(
            stream_id=1, flags=FLAG_END_STREAM, data=b"done").serialize())
        client.data_to_send()
        events = client.receive_data(
            WindowUpdateFrame(stream_id=1, increment=5).serialize())
        assert events == [ev.WindowUpdated(1, 5)]
        assert 1 not in client._streams
        assert client.connection_send_window == INITIAL_WINDOW
        assert client.data_to_send() == b""

    @pytest.mark.parametrize("interloper", [
        DataFrame(stream_id=1, data=b"x"),
        WindowUpdateFrame(stream_id=0, increment=1),
    ], ids=("data", "window-update"))
    def test_body_frames_may_not_interrupt_a_header_block(self, interloper):
        from repro.h2.hpack import HpackEncoder
        _, server, _, _ = pair()
        block = HpackEncoder().encode(REQUEST)
        opening = HeadersFrame(stream_id=1, flags=0, header_block=block[:3])
        assert server.receive_data(opening.serialize()) == []
        with pytest.raises(H2ConnectionError) as raised:
            server.receive_data(interloper.serialize())
        assert raised.value.code is ErrorCode.PROTOCOL_ERROR
        assert queued_frames(server) == [
            GoAwayFrame(last_stream_id=0,
                        error_code=ErrorCode.PROTOCOL_ERROR)
        ]
        assert server.connection_send_window == INITIAL_WINDOW
        assert server.connection_recv_window == INITIAL_WINDOW

    def test_frames_before_a_bad_frame_take_effect_but_report_nothing(self):
        """One read holds a good DATA frame, a bad one and a PING.  The
        good frame is handled in full -- windows charged and, half of
        them being gone, replenished, its WINDOW_UPDATEs queued ahead
        of the GOAWAY -- but its
        ``DataReceived`` is lost with the exception; the bad frame is
        consumed; what followed it stays buffered, unparsed.  (Before
        the single-pass reader, a read that failed to *parse* dropped
        the frames ahead of the bad one unhandled.)"""
        good = DataFrame(stream_id=1, data=b"good" * 10_000)
        bad = DataFrame(stream_id=0, data=b"bad")
        after = PingFrame()
        client = client_with_open_stream()
        with pytest.raises(H2ConnectionError):
            client.receive_data(
                good.serialize() + bad.serialize() + after.serialize())
        assert queued_frames(client) == [
            WindowUpdateFrame(stream_id=0, increment=40_000),
            WindowUpdateFrame(stream_id=1, increment=40_000),
            GoAwayFrame(last_stream_id=0,
                        error_code=ErrorCode.PROTOCOL_ERROR),
        ]
        assert client.connection_recv_window == INITIAL_WINDOW
        assert client._streams[1].recv_window == INITIAL_WINDOW
        assert bytes(client._recv_buffer) == after.serialize()

    def test_a_clean_read_leaves_only_the_incomplete_tail(self):
        client = client_with_open_stream()
        whole = DataFrame(stream_id=1, data=b"whole").serialize()
        partial = DataFrame(stream_id=1, data=b"partial").serialize()[:12]
        assert len(client.receive_data(whole + partial)) == 1
        assert bytes(client._recv_buffer) == partial

    def test_frame_size_never_exceeds_the_24_bit_length(self):
        """The peer cannot talk the sender into a DATA frame whose
        length would not fit the header: SETTINGS_MAX_FRAME_SIZE is
        refused above 2**24 - 1, and the largest legal value is
        honoured exactly."""
        _, server, _, _ = pair()
        with pytest.raises(H2ConnectionError) as raised:
            server.remote_settings.apply(
                int(SettingId.MAX_FRAME_SIZE), 2**24)
        assert raised.value.code is ErrorCode.PROTOCOL_ERROR
        server.remote_settings.apply(int(SettingId.MAX_FRAME_SIZE), 2**24 - 1)
        server.receive_data(
            HeadersFrame(stream_id=1,
                         flags=FLAG_END_HEADERS | FLAG_END_STREAM,
                         header_block=b"\x82\x87\x84").serialize())
        server.send_headers(1, RESPONSE)
        server.data_to_send()
        server.send_data(1, b"x" * 40_000, end_stream=True)
        frames = queued_frames(server)
        assert [len(frame.data) for frame in frames] == [40_000]


def traced_allocations(work):
    """Run ``work()`` under tracemalloc; returns ``(retained, peak)``
    bytes allocated since the call began."""
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        work()
        gc.collect()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    def test_a_16_mb_body_streams_through_without_being_retained(self):
        """Neither endpoint keeps anything per frame: moving a body
        costs a few windows' worth of buffers, not a multiple of the
        body.  (With ``frames_sent`` / ``frames_received`` the pair
        peaked at 2.06x the body and kept 2.05x.)"""
        body = bytes(16 * 1024 * 1024)  # allocated before tracing starts
        client, server, _, _ = pair()
        client.send_headers(1, REQUEST, end_stream=True)
        pump(client, server)
        server.send_headers(1, RESPONSE)
        pump(server, client)
        received = []

        def move():
            server.send_data(1, body, end_stream=True)
            while True:
                wire = server.data_to_send()
                if not wire:
                    break
                total = 0
                for event in client.receive_data(wire):
                    if isinstance(event, ev.DataReceived):
                        total += len(event.data)  # ... and drop it
                received.append(total)
                server.receive_data(client.data_to_send())

        retained, peak = traced_allocations(move)
        assert sum(received) == len(body)
        assert not client._streams and not server._streams  # closed
        assert peak < 0.25 * len(body)
        assert retained < 1024 * 1024


    def test_a_long_lived_connection_keeps_no_closed_stream(self):
        """2,000 requests in turn on one connection: each stream's
        entry goes as it closes, so neither end holds more than the
        stream in flight, and memory does not grow with requests
        served.  (Keeping every closed stream, the pair retained
        678 KB here; pruning them, 3 KB.)"""
        client, server, _, _ = pair()
        sizes = []

        def exchange():
            for _ in range(2_000):
                stream_id = client.get_next_stream_id()
                client.send_headers(stream_id, REQUEST, end_stream=True)
                pump(client, server)
                server.send_headers(stream_id, RESPONSE)
                server.send_data(stream_id, b"x" * 100, end_stream=True)
                pump(server, client)
                pump(client, server)
                sizes.append(max(len(client._streams),
                                 len(server._streams)))

        retained, _ = traced_allocations(exchange)
        assert max(sizes) <= 1
        assert retained < 32 * 1024


class TestStreamIdentifierRules:
    """The stream-identifier column of the type table: a frame that
    belongs to the connection on a stream, or one that belongs to a
    stream on stream 0, is a PROTOCOL_ERROR connection error."""

    CASES = {
        "settings-on-stream-1": SettingsFrame(stream_id=1),  # §6.5
        "settings-ack-on-stream-1": SettingsFrame(stream_id=1,
                                                  flags=FLAG_ACK),
        "ping-on-stream-1": PingFrame(stream_id=1),  # §6.7
        "ping-ack-on-stream-1": PingFrame(stream_id=1, flags=FLAG_ACK),
        "goaway-on-stream-1": GoAwayFrame(stream_id=1),  # §6.8
        "priority-on-stream-0": PriorityFrame(stream_id=0),  # §6.3
    }

    @pytest.mark.parametrize("role", [Role.CLIENT, Role.SERVER])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_refused_with_a_goaway(self, role, name):
        endpoint = H2Connection(role)
        endpoint.initiate()
        endpoint.data_to_send()
        wire = self.CASES[name].serialize()
        if role is Role.SERVER:
            wire = CONNECTION_PREFACE + wire
        with pytest.raises(H2ConnectionError, match=" on stream ") as raised:
            endpoint.receive_data(wire)
        assert raised.value.code is ErrorCode.PROTOCOL_ERROR
        assert queued_frames(endpoint) == [
            GoAwayFrame(last_stream_id=0, error_code=ErrorCode.PROTOCOL_ERROR)
        ]


class TestPushPromiseByRole:
    """RFC 7540 §8.2: a server never receives PUSH_PROMISE, so one that
    does fails the connection whatever its SETTINGS_ENABLE_PUSH; a
    client that left push enabled decodes the promise's header block
    and resets the promised stream with CANCEL (§8.2.2; no stream here
    is ever reserved)."""

    PROMISE = PushPromiseFrame(stream_id=1, flags=FLAG_END_HEADERS,
                               promised_stream_id=2,
                               header_block=b"\x82\x87\x84").serialize()

    def open_pair(self):
        client, server, _, _ = pair()
        client.send_headers(1, REQUEST, end_stream=True)
        pump(client, server)
        assert client.local_settings.enable_push
        assert server.local_settings.enable_push
        return client, server

    def test_a_server_refuses_it_with_a_goaway(self):
        _, server = self.open_pair()
        with pytest.raises(H2ConnectionError, match="to a server") as raised:
            server.receive_data(self.PROMISE)
        assert raised.value.code is ErrorCode.PROTOCOL_ERROR
        assert queued_frames(server) == [
            GoAwayFrame(last_stream_id=1, error_code=ErrorCode.PROTOCOL_ERROR)
        ]

    CANCEL = RstStreamFrame(stream_id=2, error_code=ErrorCode.CANCEL)

    def test_a_client_with_push_enabled_cancels_it(self):
        client, _ = self.open_pair()
        assert client.receive_data(self.PROMISE) == []
        assert queued_frames(client) == [self.CANCEL]
        assert client._streams[1].state is StreamState.HALF_CLOSED_LOCAL

    def test_the_promise_keeps_the_hpack_table_in_step(self):
        """The promise's block indexes a header that the response's
        block then refers to by its dynamic-table index."""
        client, _ = self.open_pair()
        encoder = HpackEncoder()
        promise = PushPromiseFrame(
            stream_id=1, flags=FLAG_END_HEADERS, promised_stream_id=2,
            header_block=encoder.encode(REQUEST + [("x-probe", "1")]))
        block = encoder.encode([(":status", "200"), ("x-probe", "1")])
        assert block[-1:] == b"\xbe"  # dynamic-table index 1
        response = HeadersFrame(stream_id=1, flags=FLAG_END_HEADERS,
                                header_block=block)
        events = client.receive_data(promise.serialize()
                                     + response.serialize())
        assert events == [ev.ResponseReceived(
            1, [(":status", "200"), ("x-probe", "1")], False)]
        assert queued_frames(client) == [self.CANCEL]

    def test_a_promise_continues_in_continuation(self):
        client, _ = self.open_pair()
        block = HpackEncoder().encode(REQUEST)
        frames = [
            PushPromiseFrame(stream_id=1, promised_stream_id=2,
                             header_block=block[:2]),
            ContinuationFrame(stream_id=1, flags=FLAG_END_HEADERS,
                              header_block=block[2:]),
        ]
        assert client.receive_data(
            b"".join(frame.serialize() for frame in frames)) == []
        assert queued_frames(client) == [self.CANCEL]

    @pytest.mark.parametrize("promised", [0, 1, 2],
                             ids=["zero", "client-side", "used"])
    def test_a_promise_of_a_stream_the_server_cannot_open(self, promised):
        """The promised ID must be an idle one of the server's (RFC
        7540 §6.6): ID 2 is no longer idle once it has been cancelled."""
        client, _ = self.open_pair()
        client.receive_data(self.PROMISE)
        client.data_to_send()
        promise = PushPromiseFrame(
            stream_id=1, flags=FLAG_END_HEADERS,
            promised_stream_id=promised, header_block=b"\x82\x87\x84")
        with pytest.raises(H2ConnectionError, match="PUSH_PROMISE of") \
                as raised:
            client.receive_data(promise.serialize())
        assert raised.value.code is ErrorCode.PROTOCOL_ERROR
        assert client._streams[1].state is StreamState.HALF_CLOSED_LOCAL


class TestAnIdWithoutAnEntry:
    """What a connection answers for a stream ID it keeps nothing for
    (RFC 7540 §5.1), for each frame type a stream receives, at either
    role: on an ID closed each of four ways, exactly what it answered
    when it kept its closed streams; on an idle ID, HEADERS opens it if
    the ID is the peer's (RFC 7540 §5.1.1), PRIORITY is ignored and
    anything else is a PROTOCOL_ERROR."""

    #: Stream 1 closed four ways, as ``(who acts, what)`` steps, each
    #: delivered to the other side.
    CLOSINGS = {
        Role.CLIENT: {
            "end-stream-sent-last": [("client", "headers"),
                                     ("server", "headers-end"),
                                     ("client", "data-end")],
            "end-stream-received-last": [("client", "headers-end"),
                                         ("server", "headers-end")],
            "rst-sent": [("client", "headers"), ("client", "rst")],
            "rst-received": [("client", "headers"), ("server", "rst")],
        },
        Role.SERVER: {
            "end-stream-sent-last": [("client", "headers-end"),
                                     ("server", "headers-end")],
            "end-stream-received-last": [("client", "headers"),
                                         ("server", "headers-end"),
                                         ("client", "data-end")],
            "rst-sent": [("client", "headers"), ("server", "rst")],
            "rst-received": [("client", "headers"), ("client", "rst")],
        },
    }
    FRAMES = {
        "data": lambda sid: DataFrame(stream_id=sid, data=b"late"),
        "headers": lambda sid: HeadersFrame(
            stream_id=sid, flags=FLAG_END_HEADERS, header_block=b"\x88"),
        "priority": lambda sid: PriorityFrame(stream_id=sid, weight=16),
        "rst-stream": lambda sid: RstStreamFrame(
            stream_id=sid, error_code=ErrorCode.CANCEL),
        "window-update": lambda sid: WindowUpdateFrame(
            stream_id=sid, increment=5),
    }

    def endpoints(self, role, steps):
        client, server, _, _ = pair()
        ends = {"client": client, "server": server}
        for who, what in steps:
            actor = ends[who]
            if what == "rst":
                actor.send_rst_stream(1)
            elif what == "data-end":
                actor.send_data(1, b"", end_stream=True)
            else:
                actor.send_headers(1, RESPONSE if who == "server" else
                                   REQUEST, end_stream=what == "headers-end")
            pump(actor, ends["server" if who == "client" else "client"])
        me = client if role is Role.CLIENT else server
        me.data_to_send()
        return me

    def answer(self, me, name, stream_id):
        wire = self.FRAMES[name](stream_id).serialize()
        try:
            events = me.receive_data(wire)
        except H2ConnectionError as error:
            return error.code, me.data_to_send()
        return events, me.data_to_send()

    @pytest.mark.parametrize("role", [Role.CLIENT, Role.SERVER])
    @pytest.mark.parametrize("how", ["end-stream-sent-last",
                                     "end-stream-received-last",
                                     "rst-sent", "rst-received"])
    @pytest.mark.parametrize("name", list(FRAMES))
    def test_a_closed_id(self, role, how, name):
        me = self.endpoints(role, self.CLOSINGS[role][how])
        reset = RstStreamFrame(stream_id=1,
                               error_code=ErrorCode.STREAM_CLOSED)
        expected = {
            "data": ([ev.StreamReset(1, ErrorCode.STREAM_CLOSED)],
                     reset.serialize()),
            "headers": ([ev.StreamReset(1, ErrorCode.STREAM_CLOSED)],
                        reset.serialize()),
            "priority": ([], b""),
            "rst-stream": ([ev.StreamReset(1, ErrorCode.CANCEL)], b""),
            "window-update": ([ev.WindowUpdated(1, 5)], b""),
        }[name]
        assert self.answer(me, name, 1) == expected

    @pytest.mark.parametrize("role", [Role.CLIENT, Role.SERVER])
    @pytest.mark.parametrize("how", ["end-stream-sent-last",
                                     "end-stream-received-last",
                                     "rst-sent", "rst-received",
                                     "idle-local", "idle-remote",
                                     "idle-99"])
    def test_no_window_update_is_sent_for_it(self, role, how):
        """Nothing but PRIORITY is sent on a closed ID, and nothing but
        HEADERS (or PRIORITY) on an idle one (RFC 7540 §5.1): a
        WINDOW_UPDATE for either is refused before anything is
        framed."""
        if how.startswith("idle"):
            me = self.endpoints(role, [("client", "headers")])
            stream_id = {"idle-local": 3 if role is Role.CLIENT else 2,
                         "idle-remote": 2 if role is Role.CLIENT else 3,
                         "idle-99": 99}[how]
        else:
            me = self.endpoints(role, self.CLOSINGS[role][how])
            stream_id = 1
        with pytest.raises(H2StreamError) as refused:
            me.send_window_update(stream_id, 5)
        assert refused.value.code is ErrorCode.STREAM_CLOSED
        assert me.data_to_send() == b""
        assert stream_id not in me._streams

    @pytest.mark.parametrize("role", [Role.CLIENT, Role.SERVER])
    @pytest.mark.parametrize("parity", ["local", "remote"])
    @pytest.mark.parametrize("name", list(FRAMES))
    def test_an_idle_id(self, role, parity, name):
        me = self.endpoints(role, [("client", "headers")])
        stream_id = 3 if (parity == "local") is (role is Role.CLIENT) else 2
        goaway = GoAwayFrame(last_stream_id=int(role is Role.SERVER),
                             error_code=ErrorCode.PROTOCOL_ERROR)
        opened = (ev.ResponseReceived if role is Role.CLIENT
                  else ev.RequestReceived)(stream_id, [(":status", "200")],
                                           False)
        refused = (ErrorCode.PROTOCOL_ERROR, goaway.serialize())
        expected = {
            "data": refused,
            "headers": refused if parity == "local" else ([opened], b""),
            "priority": ([], b""),
            "rst-stream": refused,
            "window-update": refused,
        }[name]
        assert self.answer(me, name, stream_id) == expected
