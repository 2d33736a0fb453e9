"""A refused call leaves no trace: a stateful test over one h2 pair.

Hypothesis drives a client and a server
:class:`~repro.h2.connection.H2Connection` through their public send
calls -- HEADERS, DATA, RST_STREAM, WINDOW_UPDATE, GOAWAY, ORIGIN,
CERTIFICATE, a second ``initiate`` -- on stream IDs the stream table
accepts and IDs it refuses (idle, closed, half-closed, the peer's),
and delivers the bytes each has sent the other a few at a time.

Every step runs twice: on the *real* pair and on a *twin* pair that is
given the same calls, except those the real endpoint refused by
raising.  So after each step:

* the twin endpoint emitted the same bytes and reads the same events
  as the real one, and holds the same stream table, send queue,
  watermarks and windows: a refused call left nothing behind, not a
  queued frame, a moved stream-ID watermark or a listed stream;
* ``receive_data`` raised nothing but :class:`H2ConnectionError`, and
  then with its GOAWAY queued last;
* a read reports HEADERS on an ID of the reader's own parity only if
  the reader opened that stream (RFC 7540 §5.1.1): HEADERS sent on the
  peer's idle IDs, which both sides draw, never open a stream.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, rule

from repro.h2 import events as ev
from repro.h2.connection import H2Connection, Role
from repro.h2.errors import ErrorCode, H2ConnectionError, H2Error
from tests import h2_reference_frames as fr

REQUEST = [(":method", "GET"), (":scheme", "https"),
           (":authority", "pair.example"), (":path", "/")]
RESPONSE = [(":status", "200"), ("content-type", "text/plain")]
ORIGINS = ("https://pair.example", "https://cdn.pair.example")

_ends = st.sampled_from(["client", "server"])
#: Both sides' IDs, the first few of each: enough to open, half-close,
#: close and skip IDs, and to name ones neither side has used.
_stream_ids = st.integers(1, 8)
#: Calls on stream 0 alone, drawn as one rule so that GOAWAY (after
#: which HEADERS is refused) and the always refused second
#: ``initiate`` do not crowd out the stream calls.
_connection_calls = st.sampled_from([
    ("send_origin", ORIGINS[:1]),
    ("send_certificate", 1, b""),
    ("send_certificate", 1, bytes(20_000)),
    ("initiate",),
    ("send_goaway", ErrorCode.PROTOCOL_ERROR),
])
_codes = st.sampled_from([ErrorCode.NO_ERROR, ErrorCode.PROTOCOL_ERROR,
                          ErrorCode.CANCEL])


class Pair:
    """A client and a server, and the bytes each has sent the other
    that have not been delivered yet."""

    def __init__(self) -> None:
        self.ends = {"client": H2Connection(Role.CLIENT),
                     "server": H2Connection(Role.SERVER,
                                            origin_set=ORIGINS)}
        self.wire = {"client": bytearray(), "server": bytearray()}
        for side, conn in self.ends.items():
            conn.initiate()
            self.flush(side)

    def flush(self, side: str) -> None:
        self.wire[side] += self.ends[side].data_to_send()


def _peer(side: str) -> str:
    return "server" if side == "client" else "client"


def _books(conn: H2Connection) -> tuple:
    """What an endpoint would act on later: its streams, queued DATA,
    stream-ID watermarks and windows."""
    return (
        sorted((stream_id, stream.state, stream.send_window,
                stream.recv_window, stream.recv_unacked)
               for stream_id, stream in conn._streams.items()),
        [(stream_id, bytes(body), end_stream)
         for stream_id, body, end_stream in conn._send_queue],
        conn._windowless_queued, conn._next_stream_id,
        conn._highest_remote_stream, conn._goaway_sent,
        conn.connection_send_window, conn.connection_recv_window,
        conn._recv_unacked, conn.local_origin_set,
    )


class RefusedCallsLeaveNoTrace(RuleBasedStateMachine):
    #: IDs the endpoints handed out or opened: most calls go to these.
    used = Bundle("used")

    def __init__(self) -> None:
        super().__init__()
        self.real = Pair()
        self.twin = Pair()
        #: IDs each side opened with HEADERS of its own.
        self.opened = {"client": set(), "server": set()}

    def call(self, side: str, method: str, *args) -> None:
        """``method(*args)`` on the real endpoint, and on the twin
        unless the real one refused it; then both sent the same."""
        try:
            getattr(self.real.ends[side], method)(*args)
        except H2Error:
            pass
        else:
            getattr(self.twin.ends[side], method)(*args)
            if method == "send_headers":
                self.opened[side].add(args[0])
        self.compare(side)

    def compare(self, side: str) -> None:
        for pair in (self.real, self.twin):
            pair.flush(side)
        assert self.real.wire[side] == self.twin.wire[side]
        assert (_books(self.real.ends[side])
                == _books(self.twin.ends[side]))

    @rule(target=used, side=_ends)
    def next_stream_id(self, side):
        stream_id = self.real.ends[side].get_next_stream_id()
        assert stream_id == self.twin.ends[side].get_next_stream_id()
        return stream_id

    @rule(target=used, side=_ends,
          stream_id=st.one_of(used, used, _stream_ids),
          end_stream=st.booleans())
    def headers(self, side, stream_id, end_stream):
        block = REQUEST if side == "client" else RESPONSE
        self.call(side, "send_headers", stream_id, block, end_stream)
        return stream_id

    @rule(side=_ends, stream_id=st.one_of(used, used, _stream_ids),
          end_stream=st.booleans(),
          size=st.sampled_from([0, 1, 700, 16_384, 70_000]))
    def data(self, side, stream_id, end_stream, size):
        self.call(side, "send_data", stream_id, bytes(size), end_stream)

    @rule(side=_ends, stream_id=st.one_of(used, _stream_ids), code=_codes)
    def rst_stream(self, side, stream_id, code):
        self.call(side, "send_rst_stream", stream_id, code)

    @rule(side=_ends, stream_id=st.one_of(used, st.integers(0, 8)),
          increment=st.sampled_from([0, 1, 1000, 65_535, 1 << 20]))
    def window_update(self, side, stream_id, increment):
        self.call(side, "send_window_update", stream_id, increment)

    @rule(side=_ends, call=_connection_calls)
    def connection_call(self, side, call):
        self.call(side, *call)

    @rule(side=_ends, size=st.integers(1, 20_000))
    def deliver(self, side, size):
        """The next ``size`` bytes ``side`` sent, read by its peer."""
        peer = _peer(side)
        reads = []
        for pair in (self.real, self.twin):
            chunk = bytes(pair.wire[side][:size])
            del pair.wire[side][:size]
            try:
                reads.append(pair.ends[peer].receive_data(chunk))
            except H2ConnectionError as error:
                reads.append(error.code)
                output = pair.ends[peer].data_to_send()
                frames, rest = fr.parse_frames(output)
                assert rest == b""
                goaway = frames[-1]
                assert type(goaway) is fr.GoAwayFrame
                assert goaway.error_code is error.code
                pair.wire[peer] += output
        assert reads[0] == reads[1]
        own = 1 if peer == "client" else 0
        for event in reads[0] if isinstance(reads[0], list) else ():
            if (isinstance(event, (ev.RequestReceived, ev.ResponseReceived))
                    and event.stream_id & 1 == own):
                assert event.stream_id in self.opened[peer]
        self.compare(peer)


RefusedCallsLeaveNoTrace.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None)
TestRefusedCallsLeaveNoTrace = RefusedCallsLeaveNoTrace.TestCase
