"""Per-stream state machine (RFC 7540 §5.1), written as its table.

``TRANSITIONS`` maps ``(state, input)`` to the next state; a pair it
does not list is refused with a STREAM_CLOSED stream error.  HEADERS
or DATA carrying END_STREAM is two inputs, the frame's and then
END_STREAM, as in the RFC's diagram.  The reserved states are left
out: only PUSH_PROMISE leads to them, no endpoint here sends one, and
one received reserves no stream (it is a PROTOCOL_ERROR at a server,
RFC 7540 §8.2, and at a client that advertised SETTINGS_ENABLE_PUSH 0;
any other client decodes its header block and cancels the promised
stream, §8.2.2).
``DEVIATIONS`` names the pairs where this table departs from the RFC,
and why.

A connection keeps a :class:`Stream` only until it closes
(``H2Connection._advance``); an ID without one is idle or closed by
RFC 7540 §5.1.1's watermark, and this table's rows for that state
answer for it.
"""

from __future__ import annotations

import enum

from repro.h2.errors import ErrorCode, H2StreamError


class StreamState(enum.Enum):
    IDLE = "idle"
    OPEN = "open"
    HALF_CLOSED_LOCAL = "half-closed (local)"
    HALF_CLOSED_REMOTE = "half-closed (remote)"
    CLOSED = "closed"


class StreamInput(enum.Enum):
    SEND_HEADERS = "send HEADERS"
    SEND_DATA = "send DATA"
    SEND_END_STREAM = "send END_STREAM"
    SEND_RST_STREAM = "send RST_STREAM"
    SEND_WINDOW_UPDATE = "send WINDOW_UPDATE"
    RECV_HEADERS = "receive HEADERS"
    RECV_DATA = "receive DATA"
    RECV_END_STREAM = "receive END_STREAM"
    RECV_RST_STREAM = "receive RST_STREAM"
    RECV_WINDOW_UPDATE = "receive WINDOW_UPDATE"


_S, _I = StreamState, StreamInput

TRANSITIONS = {
    (_S.IDLE, _I.SEND_HEADERS): _S.OPEN,
    (_S.IDLE, _I.RECV_HEADERS): _S.OPEN,
    (_S.IDLE, _I.SEND_RST_STREAM): _S.CLOSED,
    (_S.IDLE, _I.RECV_RST_STREAM): _S.CLOSED,

    # Further HEADERS on an open stream are a response or trailers.
    (_S.OPEN, _I.SEND_HEADERS): _S.OPEN,
    (_S.OPEN, _I.SEND_DATA): _S.OPEN,
    (_S.OPEN, _I.SEND_END_STREAM): _S.HALF_CLOSED_LOCAL,
    (_S.OPEN, _I.RECV_HEADERS): _S.OPEN,
    (_S.OPEN, _I.RECV_DATA): _S.OPEN,
    (_S.OPEN, _I.RECV_END_STREAM): _S.HALF_CLOSED_REMOTE,
    (_S.OPEN, _I.SEND_RST_STREAM): _S.CLOSED,
    (_S.OPEN, _I.RECV_RST_STREAM): _S.CLOSED,
    (_S.OPEN, _I.SEND_WINDOW_UPDATE): _S.OPEN,
    (_S.OPEN, _I.RECV_WINDOW_UPDATE): _S.OPEN,

    (_S.HALF_CLOSED_LOCAL, _I.RECV_HEADERS): _S.HALF_CLOSED_LOCAL,
    (_S.HALF_CLOSED_LOCAL, _I.RECV_DATA): _S.HALF_CLOSED_LOCAL,
    (_S.HALF_CLOSED_LOCAL, _I.RECV_END_STREAM): _S.CLOSED,
    (_S.HALF_CLOSED_LOCAL, _I.SEND_RST_STREAM): _S.CLOSED,
    (_S.HALF_CLOSED_LOCAL, _I.RECV_RST_STREAM): _S.CLOSED,
    (_S.HALF_CLOSED_LOCAL, _I.SEND_WINDOW_UPDATE): _S.HALF_CLOSED_LOCAL,
    (_S.HALF_CLOSED_LOCAL, _I.RECV_WINDOW_UPDATE): _S.HALF_CLOSED_LOCAL,

    (_S.HALF_CLOSED_REMOTE, _I.SEND_HEADERS): _S.HALF_CLOSED_REMOTE,
    (_S.HALF_CLOSED_REMOTE, _I.SEND_DATA): _S.HALF_CLOSED_REMOTE,
    (_S.HALF_CLOSED_REMOTE, _I.SEND_END_STREAM): _S.CLOSED,
    (_S.HALF_CLOSED_REMOTE, _I.SEND_RST_STREAM): _S.CLOSED,
    (_S.HALF_CLOSED_REMOTE, _I.RECV_RST_STREAM): _S.CLOSED,
    (_S.HALF_CLOSED_REMOTE, _I.SEND_WINDOW_UPDATE): _S.HALF_CLOSED_REMOTE,
    (_S.HALF_CLOSED_REMOTE, _I.RECV_WINDOW_UPDATE): _S.HALF_CLOSED_REMOTE,

    # A late RST_STREAM or WINDOW_UPDATE is ignored.
    (_S.CLOSED, _I.SEND_RST_STREAM): _S.CLOSED,
    (_S.CLOSED, _I.RECV_RST_STREAM): _S.CLOSED,
    (_S.CLOSED, _I.RECV_WINDOW_UPDATE): _S.CLOSED,
}

DEVIATIONS = {
    (_S.IDLE, _I.SEND_RST_STREAM):
        "RFC 7540 §6.4 forbids RST_STREAM for an idle stream; "
        "H2Connection.send_rst_stream closes a stream it never opened",
    (_S.IDLE, _I.RECV_RST_STREAM):
        "RFC 7540 §6.4 makes this a connection error; H2Connection "
        "raises it for an idle ID, before the stream",
    (_S.CLOSED, _I.SEND_RST_STREAM):
        "RFC 7540 §5.1 sends nothing but PRIORITY on a closed stream; "
        "resetting a closed stream again is accepted",
}

#: The states a stream may send DATA in.
SENDS_DATA = frozenset(state for state, event in TRANSITIONS
                       if event is _I.SEND_DATA)


class Stream:
    """One HTTP/2 stream with its state and flow-control windows."""

    __slots__ = (
        "stream_id",
        "state",
        "send_window",
        "recv_window",
        "recv_unacked",
    )

    def __init__(
        self,
        stream_id: int,
        send_window: int,
        recv_window: int,
    ) -> None:
        if stream_id <= 0:
            raise ValueError(f"invalid stream id {stream_id}")
        self.stream_id = stream_id
        self.state = StreamState.IDLE
        self.send_window = send_window
        self.recv_window = recv_window
        #: DATA bytes consumed and not yet returned by a WINDOW_UPDATE.
        self.recv_unacked = 0

    def advance(self, event: StreamInput) -> None:
        """Take one input through :data:`TRANSITIONS`."""
        state = TRANSITIONS.get((self.state, event))
        if state is None:
            raise H2StreamError(
                self.stream_id, ErrorCode.STREAM_CLOSED,
                f"cannot {event.value} in state {self.state.value}",
            )
        self.state = state

    def __repr__(self) -> str:
        return f"Stream({self.stream_id}, {self.state.value})"
