"""Stream state machine unit tests (RFC 7540 §5.1)."""

import pytest

from repro.h2 import ErrorCode, Role, StreamState
from repro.h2.errors import H2StreamError
from repro.h2 import stream as machine
from repro.h2.stream import Stream, StreamInput


def make_stream(window=65535):
    return Stream(1, send_window=window, recv_window=window)


class TestLifecycle:
    def test_invalid_stream_id(self):
        with pytest.raises(ValueError):
            Stream(0, 100, 100)

    def test_open_on_send_headers(self):
        stream = make_stream()
        stream.send_headers(end_stream=False)
        assert stream.state is StreamState.OPEN

    def test_half_closed_local_on_end_stream_headers(self):
        stream = make_stream()
        stream.send_headers(end_stream=True)
        assert stream.state is StreamState.HALF_CLOSED_LOCAL

    def test_full_request_response_cycle(self):
        stream = make_stream()
        stream.send_headers(end_stream=True)       # request out
        stream.receive_headers(end_stream=False)   # response headers
        stream.receive_data(10, end_stream=True)   # response body
        assert stream.state is StreamState.CLOSED

    def test_server_side_cycle(self):
        stream = make_stream()
        stream.receive_headers(end_stream=True)
        assert stream.state is StreamState.HALF_CLOSED_REMOTE
        stream.send_headers(end_stream=False)
        stream.send_data(5, end_stream=True)
        assert stream.state is StreamState.CLOSED

    def test_trailers_end_the_remote_side(self):
        stream = make_stream()
        stream.receive_headers(end_stream=False)
        stream.receive_headers(end_stream=True)   # trailers
        assert stream.state is StreamState.HALF_CLOSED_REMOTE


class TestViolations:
    def test_data_before_headers_rejected(self):
        stream = make_stream()
        with pytest.raises(H2StreamError):
            stream.send_data(5, end_stream=False)

    def test_data_on_closed_stream_rejected(self):
        stream = make_stream()
        stream.advance(StreamInput.SEND_RST_STREAM)
        with pytest.raises(H2StreamError):
            stream.receive_data(5, end_stream=False)

    def test_headers_on_closed_stream_rejected(self):
        stream = make_stream()
        stream.advance(StreamInput.SEND_RST_STREAM)
        with pytest.raises(H2StreamError):
            stream.receive_headers(end_stream=False)


class TestFlowControl:
    def test_send_window_enforced(self):
        stream = make_stream(window=10)
        stream.send_headers(end_stream=False)
        with pytest.raises(H2StreamError) as exc:
            stream.send_data(11, end_stream=False)
        assert exc.value.code is ErrorCode.FLOW_CONTROL_ERROR

    def test_recv_window_enforced(self):
        stream = make_stream(window=10)
        stream.receive_headers(end_stream=False)
        with pytest.raises(H2StreamError):
            stream.receive_data(11, end_stream=False)

    def test_reset_closes(self):
        stream = make_stream()
        stream.send_headers(end_stream=False)
        stream.advance(StreamInput.SEND_RST_STREAM)
        assert stream.closed

    def test_either_reset_closes(self):
        for event in (StreamInput.SEND_RST_STREAM,
                      StreamInput.RECV_RST_STREAM):
            stream = make_stream()
            stream.receive_headers(end_stream=False)
            stream.advance(event)
            assert stream.closed


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
    # half-closed (local): "can receive any type of frame"; sends only
    # WINDOW_UPDATE, PRIORITY and RST_STREAM.
    (S.HALF_CLOSED_LOCAL, I.RECV_HEADERS): S.HALF_CLOSED_LOCAL,
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
    (S.HALF_CLOSED_REMOTE, I.RECV_RST_STREAM): S.CLOSED,
    # closed: a late RST_STREAM from the peer is ignored.
    (S.CLOSED, I.RECV_RST_STREAM): S.CLOSED,
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

#: Each public call as the inputs it takes through the table.
CALLS = {
    ("send_headers", False): [I.SEND_HEADERS],
    ("send_headers", True): [I.SEND_HEADERS, I.SEND_END_STREAM],
    ("send_data", False): [I.SEND_DATA],
    ("send_data", True): [I.SEND_DATA, I.SEND_END_STREAM],
    ("receive_headers", False): [I.RECV_HEADERS],
    ("receive_headers", True): [I.RECV_HEADERS, I.RECV_END_STREAM],
    ("receive_data", False): [I.RECV_DATA],
    ("receive_data", True): [I.RECV_DATA, I.RECV_END_STREAM],
}


def stream_in(role, state):
    stream = make_stream()
    for name, end_stream in HISTORIES[role][state]:
        call(stream, name, end_stream)
    assert stream.state is state
    return stream


def call(stream, name, end_stream):
    if name.endswith("data"):
        getattr(stream, name)(1, end_stream)
    else:
        getattr(stream, name)(end_stream)


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
        stream = stream_in(role, state)
        after = expected_after(state, CALLS[name, end_stream])
        if after is None:
            with pytest.raises(H2StreamError) as refused:
                call(stream, name, end_stream)
            assert refused.value.code is ErrorCode.STREAM_CLOSED
            assert stream.state is state
        else:
            call(stream, name, end_stream)
            assert stream.state is after
