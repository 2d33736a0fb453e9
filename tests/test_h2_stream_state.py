"""Stream state machine tests (RFC 7540 §5.1): the table, and the
connection's calls as the inputs they take through it."""

import pytest

from repro.h2 import CONNECTION_PREFACE, ErrorCode, H2Connection, Role, \
    StreamState
from repro.h2 import events as ev
from repro.h2.errors import H2ConnectionError, H2StreamError
from repro.h2 import stream as machine
from repro.h2.settings import SettingId
from repro.h2.stream import Stream, StreamInput
from tests.h2_reference_frames import (
    FLAG_ACK,
    FLAG_END_HEADERS,
    FLAG_END_STREAM,
    DataFrame,
    GoAwayFrame,
    HeadersFrame,
    PingFrame,
    RstStreamFrame,
    SettingsFrame,
    WindowUpdateFrame,
    parse_frames,
)

#: ``:method GET``, ``:scheme https``, ``:path /``: static-table
#: entries only, so any decoder reads them the same.
BLOCK = b"\x82\x87\x84"
HEADERS = [(":method", "GET"), (":scheme", "https"), (":path", "/")]


def endpoint(role, window=None):
    """An endpoint of ``role`` ready to take frames, optionally having
    advertised a stream receive window of ``window``."""
    conn = H2Connection(role)
    conn.initiate([(int(SettingId.INITIAL_WINDOW_SIZE), window)]
                  if window is not None else ())
    if role is Role.SERVER:
        conn.receive_data(CONNECTION_PREFACE)
    conn.data_to_send()
    return conn


def act(conn, name, end_stream, stream_id=1):
    """One call on ``stream_id``; a received frame returns its events."""
    flags = FLAG_END_STREAM if end_stream else 0
    if name == "send_headers":
        return conn.send_headers(stream_id, HEADERS, end_stream)
    if name == "send_data":
        return conn.send_data(stream_id, b"x", end_stream)
    if name == "send_window_update":
        return conn.send_window_update(stream_id, 1)
    if name == "receive_headers":
        frame = HeadersFrame(stream_id=stream_id, header_block=BLOCK,
                             flags=flags | FLAG_END_HEADERS)
    else:
        frame = DataFrame(stream_id=stream_id, data=b"x", flags=flags)
    return conn.receive_data(frame.serialize())


def state_of(conn, stream_id=1):
    """The state the connection answers for ``stream_id`` with."""
    return conn._stream(stream_id).state


class TestStream:
    def test_invalid_stream_id(self):
        with pytest.raises(ValueError):
            Stream(0, 100, 100)

    def test_a_refused_input_leaves_the_state(self):
        stream = Stream(1, 100, 100)
        with pytest.raises(H2StreamError) as refused:
            stream.advance(StreamInput.SEND_DATA)
        assert refused.value.code is ErrorCode.STREAM_CLOSED
        assert stream.state is StreamState.IDLE


class TestLifecycle:
    def test_open_on_send_headers(self):
        conn = endpoint(Role.CLIENT)
        act(conn, "send_headers", False)
        assert conn._streams[1].state is StreamState.OPEN

    def test_half_closed_local_on_end_stream_headers(self):
        conn = endpoint(Role.CLIENT)
        act(conn, "send_headers", True)
        assert conn._streams[1].state is StreamState.HALF_CLOSED_LOCAL

    def test_full_request_response_cycle(self):
        conn = endpoint(Role.CLIENT)
        act(conn, "send_headers", True)       # request out
        act(conn, "receive_headers", False)   # response headers
        act(conn, "receive_data", True)       # response body
        assert 1 not in conn._streams
        assert state_of(conn) is StreamState.CLOSED

    def test_server_side_cycle(self):
        conn = endpoint(Role.SERVER)
        act(conn, "receive_headers", True)
        assert conn._streams[1].state is StreamState.HALF_CLOSED_REMOTE
        act(conn, "send_headers", False)
        act(conn, "send_data", True)
        assert 1 not in conn._streams
        assert state_of(conn) is StreamState.CLOSED

    def test_trailers_end_the_remote_side(self):
        conn = endpoint(Role.SERVER)
        act(conn, "receive_headers", False)
        act(conn, "receive_headers", True)   # trailers
        assert conn._streams[1].state is StreamState.HALF_CLOSED_REMOTE


class TestViolations:
    def test_data_before_headers_rejected(self):
        conn = endpoint(Role.CLIENT)
        with pytest.raises(H2StreamError):
            act(conn, "send_data", False)

    @pytest.mark.parametrize("name", ["receive_data", "receive_headers"])
    def test_frame_on_a_reset_stream_rejected(self, name):
        conn = endpoint(Role.CLIENT)
        act(conn, "send_headers", False)
        conn.send_rst_stream(1)
        conn.data_to_send()
        assert act(conn, name, False) == [
            ev.StreamReset(1, ErrorCode.STREAM_CLOSED)
        ]
        assert RstStreamFrame(
            stream_id=1, error_code=ErrorCode.STREAM_CLOSED
        ).serialize() == conn.data_to_send()


class TestFlowControl:
    def test_send_window_enforced(self):
        """DATA beyond the peer's stream window waits in the queue."""
        conn = endpoint(Role.CLIENT)
        conn.receive_data(SettingsFrame(
            settings=((int(SettingId.INITIAL_WINDOW_SIZE), 10),)
        ).serialize())
        act(conn, "send_headers", False)
        conn.data_to_send()
        conn.send_data(1, b"x" * 11)
        assert conn.data_to_send() == DataFrame(
            stream_id=1, data=b"x" * 10).serialize()
        assert conn._streams[1].send_window == 0
        assert [len(entry[1]) for entry in conn._send_queue] == [1]

    def test_refused_data_leaves_later_reads_alone(self):
        """DATA after END_STREAM is refused at the call: nothing is
        queued, so a later connection WINDOW_UPDATE drains nothing and
        the PING read with it is still answered."""
        conn = endpoint(Role.CLIENT)
        act(conn, "send_headers", True)
        conn.data_to_send()
        with pytest.raises(H2StreamError) as refused:
            conn.send_data(1, b"x")
        assert refused.value.code is ErrorCode.STREAM_CLOSED
        assert not conn._send_queue
        events = conn.receive_data(
            WindowUpdateFrame(stream_id=0, increment=1).serialize()
            + PingFrame(opaque=b"12345678").serialize())
        assert events == [ev.WindowUpdated(0, 1),
                          ev.PingReceived(opaque=b"12345678")]
        assert conn.data_to_send() == PingFrame(
            opaque=b"12345678", flags=FLAG_ACK).serialize()

    def test_nothing_queues_behind_an_ended_stream(self):
        """Under queued DATA, trailers (which would pass the body, and
        with END_STREAM drop it) and DATA after a queued END_STREAM
        (which the drain would drop) are refused at the call; the whole
        body then drains, and its END_STREAM ends the stream."""
        conn = endpoint(Role.CLIENT)
        conn.receive_data(SettingsFrame(
            settings=((int(SettingId.INITIAL_WINDOW_SIZE), 10),)
        ).serialize())
        act(conn, "send_headers", False)
        conn.send_data(1, b"x" * 11, end_stream=True)
        conn.data_to_send()
        with pytest.raises(H2StreamError) as refused:
            conn.send_headers(1, [("x-trailer", "1")], end_stream=True)
        assert refused.value.code is ErrorCode.PROTOCOL_ERROR
        with pytest.raises(H2StreamError) as refused:
            conn.send_data(1, b"y")
        assert refused.value.code is ErrorCode.STREAM_CLOSED
        assert conn.data_to_send() == b""
        assert [len(entry[1]) for entry in conn._send_queue] == [1]
        assert conn.receive_data(
            WindowUpdateFrame(stream_id=1, increment=5).serialize()
        ) == [ev.WindowUpdated(1, 5)]
        assert conn.data_to_send() == DataFrame(
            stream_id=1, data=b"x", flags=FLAG_END_STREAM).serialize()
        assert not conn._send_queue
        assert state_of(conn) is StreamState.HALF_CLOSED_LOCAL

    def test_recv_window_enforced(self):
        conn = endpoint(Role.SERVER, window=10)
        act(conn, "receive_headers", False)
        assert conn.receive_data(DataFrame(
            stream_id=1, data=b"x" * 11).serialize()
        ) == [ev.StreamReset(1, ErrorCode.FLOW_CONTROL_ERROR)]
        assert 1 not in conn._streams

    def test_reset_closes(self):
        conn = endpoint(Role.CLIENT)
        act(conn, "send_headers", False)
        conn.send_rst_stream(1)
        assert 1 not in conn._streams
        assert state_of(conn) is StreamState.CLOSED

    @pytest.mark.parametrize("sent", [True, False])
    def test_either_reset_closes(self, sent):
        conn = endpoint(Role.SERVER)
        act(conn, "receive_headers", False)
        if sent:
            conn.send_rst_stream(1)
        else:
            conn.receive_data(RstStreamFrame(
                stream_id=1, error_code=ErrorCode.CANCEL).serialize())
        assert 1 not in conn._streams
        assert state_of(conn) is StreamState.CLOSED


class TestStreamIdParity:
    """RFC 7540 §5.1.1: odd stream IDs are the client's to open, even
    ones the server's."""

    @pytest.mark.parametrize("role, stream_id, headers", [
        (Role.SERVER, 5, [(":status", "200")]),
        (Role.CLIENT, 2, HEADERS),
    ])
    def test_headers_on_the_peers_idle_id_are_refused(self, role, stream_id,
                                                       headers):
        """The refusal leaves no trace: no bytes, no listed stream, no
        moved watermark, and the ID is still the peer's to open."""
        conn = endpoint(role)
        watermarks = (conn._next_stream_id, conn._highest_remote_stream)
        with pytest.raises(H2StreamError) as refused:
            conn.send_headers(stream_id, headers)
        assert refused.value.code is ErrorCode.PROTOCOL_ERROR
        assert conn.data_to_send() == b""
        assert stream_id not in conn._streams
        assert (conn._next_stream_id,
                conn._highest_remote_stream) == watermarks
        assert state_of(conn, stream_id) is StreamState.IDLE

    @pytest.mark.parametrize("role, stream_id", [
        (Role.CLIENT, 5), (Role.SERVER, 2),
    ])
    def test_headers_opening_our_own_id_are_a_connection_error(
            self, role, stream_id):
        conn = endpoint(role)
        with pytest.raises(H2ConnectionError) as error:
            act(conn, "receive_headers", True, stream_id)
        assert error.value.code is ErrorCode.PROTOCOL_ERROR
        frames, rest = parse_frames(conn.data_to_send())
        assert rest == b"" and type(frames[-1]) is GoAwayFrame
        assert frames[-1].error_code is ErrorCode.PROTOCOL_ERROR
        assert stream_id not in conn._streams


# -- the machine against RFC 7540 §5.1 ---------------------------------------

S, I = StreamState, StreamInput

#: RFC 7540 §5.1 transcribed without the reserved states (push is off
#: for both roles): ``(state, input) -> next state``; a pair not listed
#: is refused.
RFC_5_1 = {
    (S.IDLE, I.SEND_HEADERS): S.OPEN,
    (S.IDLE, I.RECV_HEADERS): S.OPEN,
    (S.OPEN, I.SEND_HEADERS): S.OPEN,
    (S.OPEN, I.RECV_HEADERS): S.OPEN,
    (S.OPEN, I.SEND_DATA): S.OPEN,
    (S.OPEN, I.RECV_DATA): S.OPEN,
    (S.OPEN, I.SEND_END_STREAM): S.HALF_CLOSED_LOCAL,
    (S.OPEN, I.RECV_END_STREAM): S.HALF_CLOSED_REMOTE,
    (S.OPEN, I.SEND_RST_STREAM): S.CLOSED,
    (S.OPEN, I.RECV_RST_STREAM): S.CLOSED,
    (S.OPEN, I.SEND_WINDOW_UPDATE): S.OPEN,
    (S.OPEN, I.RECV_WINDOW_UPDATE): S.OPEN,
    # half-closed (local): "can receive any type of frame"; sends only
    # WINDOW_UPDATE, PRIORITY and RST_STREAM.
    (S.HALF_CLOSED_LOCAL, I.RECV_HEADERS): S.HALF_CLOSED_LOCAL,
    (S.HALF_CLOSED_LOCAL, I.SEND_WINDOW_UPDATE): S.HALF_CLOSED_LOCAL,
    (S.HALF_CLOSED_LOCAL, I.RECV_WINDOW_UPDATE): S.HALF_CLOSED_LOCAL,
    (S.HALF_CLOSED_LOCAL, I.RECV_DATA): S.HALF_CLOSED_LOCAL,
    (S.HALF_CLOSED_LOCAL, I.RECV_END_STREAM): S.CLOSED,
    (S.HALF_CLOSED_LOCAL, I.SEND_RST_STREAM): S.CLOSED,
    (S.HALF_CLOSED_LOCAL, I.RECV_RST_STREAM): S.CLOSED,
    # half-closed (remote): sends anything; receives only WINDOW_UPDATE,
    # PRIORITY and RST_STREAM, else STREAM_CLOSED.
    (S.HALF_CLOSED_REMOTE, I.SEND_HEADERS): S.HALF_CLOSED_REMOTE,
    (S.HALF_CLOSED_REMOTE, I.SEND_DATA): S.HALF_CLOSED_REMOTE,
    (S.HALF_CLOSED_REMOTE, I.SEND_END_STREAM): S.CLOSED,
    (S.HALF_CLOSED_REMOTE, I.SEND_RST_STREAM): S.CLOSED,
    (S.HALF_CLOSED_REMOTE, I.SEND_WINDOW_UPDATE): S.HALF_CLOSED_REMOTE,
    (S.HALF_CLOSED_REMOTE, I.RECV_RST_STREAM): S.CLOSED,
    (S.HALF_CLOSED_REMOTE, I.RECV_WINDOW_UPDATE): S.HALF_CLOSED_REMOTE,
    # closed: a late RST_STREAM or WINDOW_UPDATE from the peer is
    # ignored; nothing but PRIORITY is sent.
    (S.CLOSED, I.RECV_RST_STREAM): S.CLOSED,
    (S.CLOSED, I.RECV_WINDOW_UPDATE): S.CLOSED,
}

#: The pairs the machine accepts although the RFC does not
#: (``repro.h2.stream.DEVIATIONS`` says why).
DEVIATIONS = {
    (S.IDLE, I.SEND_RST_STREAM): S.CLOSED,
    (S.IDLE, I.RECV_RST_STREAM): S.CLOSED,
    (S.CLOSED, I.SEND_RST_STREAM): S.CLOSED,
}

EXPECTED = {**RFC_5_1, **DEVIATIONS}

#: How each role brings a stream to each state: a client opens its
#: streams by sending HEADERS, a server by receiving them.
HISTORIES = {
    Role.CLIENT: {
        S.IDLE: [],
        S.OPEN: [("send_headers", False)],
        S.HALF_CLOSED_LOCAL: [("send_headers", True)],
        S.HALF_CLOSED_REMOTE: [("send_headers", False),
                               ("receive_headers", True)],
        S.CLOSED: [("send_headers", True), ("receive_headers", True)],
    },
    Role.SERVER: {
        S.IDLE: [],
        S.OPEN: [("receive_headers", False)],
        S.HALF_CLOSED_REMOTE: [("receive_headers", True)],
        S.HALF_CLOSED_LOCAL: [("receive_headers", False),
                              ("send_headers", True)],
        S.CLOSED: [("receive_headers", True), ("send_headers", True)],
    },
}

#: Each connection call on a stream as the inputs it takes through
#: the table.
CALLS = {
    ("send_headers", False): [I.SEND_HEADERS],
    ("send_headers", True): [I.SEND_HEADERS, I.SEND_END_STREAM],
    ("send_data", False): [I.SEND_DATA],
    ("send_data", True): [I.SEND_DATA, I.SEND_END_STREAM],
    ("send_window_update", False): [I.SEND_WINDOW_UPDATE],
    ("receive_headers", False): [I.RECV_HEADERS],
    ("receive_headers", True): [I.RECV_HEADERS, I.RECV_END_STREAM],
    ("receive_data", False): [I.RECV_DATA],
    ("receive_data", True): [I.RECV_DATA, I.RECV_END_STREAM],
}


def stream_in(role, state):
    stream = Stream(1, 65535, 65535)
    for call in HISTORIES[role][state]:
        for event in CALLS[call]:
            stream.advance(event)
    assert stream.state is state
    return stream


def endpoint_in(role, state):
    """An endpoint whose stream 1 got to ``state`` the role's way."""
    conn = endpoint(role)
    for name, end_stream in HISTORIES[role][state]:
        act(conn, name, end_stream)
    conn.data_to_send()
    assert state_of(conn) is state
    return conn


def expected_after(state, inputs):
    """The state ``inputs`` lead to from ``state``, or None if the
    first of them is refused."""
    for event in inputs:
        state = EXPECTED.get((state, event))
        if state is None:
            return None
    return state


class TestTransitionTable:
    def test_the_table_is_the_rfc_with_its_deviations(self):
        assert machine.TRANSITIONS == EXPECTED
        assert set(machine.DEVIATIONS) == set(DEVIATIONS)
        assert not set(DEVIATIONS) & set(RFC_5_1)

    def test_data_may_be_sent_while_the_local_side_is_open(self):
        assert machine.SENDS_DATA == {S.OPEN, S.HALF_CLOSED_REMOTE}

    @pytest.mark.parametrize("role", [Role.CLIENT, Role.SERVER])
    @pytest.mark.parametrize("state", list(StreamState))
    @pytest.mark.parametrize("event", list(StreamInput))
    def test_every_pair(self, role, state, event):
        stream = stream_in(role, state)
        after = EXPECTED.get((state, event))
        if after is None:
            with pytest.raises(H2StreamError) as refused:
                stream.advance(event)
            assert refused.value.code is ErrorCode.STREAM_CLOSED
            assert stream.state is state
        else:
            stream.advance(event)
            assert stream.state is after

    @pytest.mark.parametrize("role", [Role.CLIENT, Role.SERVER])
    @pytest.mark.parametrize("state", list(StreamState))
    @pytest.mark.parametrize("name, end_stream", list(CALLS))
    def test_every_call_is_its_inputs(self, role, state, name, end_stream):
        """A refused call raises STREAM_CLOSED and changes nothing --
        a refused send queues nothing -- bar three answers of the
        connection's: HEADERS on the other side's idle ID (stream 1 is
        the client's) is refused with PROTOCOL_ERROR, a frame received
        on an idle stream is a PROTOCOL_ERROR, and one received on any
        other is reset."""
        conn = endpoint_in(role, state)
        after = expected_after(state, CALLS[name, end_stream])
        if (state is S.IDLE and name == "send_headers"
                and role is Role.SERVER):
            with pytest.raises(H2StreamError) as refused:
                act(conn, name, end_stream)
            assert refused.value.code is ErrorCode.PROTOCOL_ERROR
            assert state_of(conn) is state
            assert conn.data_to_send() == b""
        elif (state is S.IDLE and name == "receive_headers"
                and role is Role.CLIENT):
            with pytest.raises(H2ConnectionError) as refused:
                act(conn, name, end_stream)
            assert refused.value.code is ErrorCode.PROTOCOL_ERROR
        elif after is not None:
            act(conn, name, end_stream)
            assert state_of(conn) is after
        elif name.startswith("receive") and state is S.IDLE:
            with pytest.raises(H2ConnectionError) as refused:
                act(conn, name, end_stream)
            assert refused.value.code is ErrorCode.PROTOCOL_ERROR
        elif name.startswith("receive"):
            assert act(conn, name, end_stream) == [
                ev.StreamReset(1, ErrorCode.STREAM_CLOSED)
            ]
            assert state_of(conn) is S.CLOSED
        else:
            with pytest.raises(H2StreamError) as refused:
                act(conn, name, end_stream)
            assert refused.value.code is ErrorCode.STREAM_CLOSED
            assert state_of(conn) is state
            assert conn.data_to_send() == b"" and not conn._send_queue
