"""HTTP/2 connection state machine.

Sans-IO design: bytes in via :meth:`H2Connection.receive_data` (which
returns events), bytes out via :meth:`data_to_send`.  The transport --
simulated TLS over :mod:`repro.netsim` here -- is someone else's job,
which keeps the protocol core synchronously testable.

ORIGIN frame behaviour (RFC 8336):

* a server constructed with ``origin_set`` advertises it right after
  its SETTINGS frame;
* a client surfaces :class:`~repro.h2.events.OriginReceived` and keeps
  the accumulated origin set on :attr:`remote_origin_set`;
* endpoints built with ``origin_aware=False`` treat ORIGIN as an
  unknown frame and ignore it, which is the spec-mandated fail-open
  the paper relies on (§4.3, §6.7).

Receive-side flow control is the browsers' rule (DESIGN.md §7): an
endpoint counts the DATA bytes it has consumed (padding included), per
connection and per stream, and returns them in one WINDOW_UPDATE once
they amount to half of the window it advertised; a closed stream gets
no update, and its bytes still count toward the connection's.
``window + unacked`` *is* the advertised window, so "half" is
``unacked >= window``, whatever :meth:`H2Connection.send_window_update`
or SETTINGS raised the window to.
"""

from __future__ import annotations

import enum
from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.h2 import frames as fr
from repro.h2 import events as ev
from repro.h2.errors import (
    ErrorCode,
    H2ConnectionError,
    H2StreamError,
    HpackError,
)
from repro.h2.hpack import HpackDecoder, HpackEncoder
from repro.h2.settings import SettingId, Settings
from repro.h2.stream import SENDS_DATA, Stream, StreamInput, StreamState

Header = Tuple[str, str]

_I = StreamInput
_IDLE, _CLOSED = StreamState.IDLE, StreamState.CLOSED


def _holds_a_frame(buffer: bytearray) -> bool:
    """Whether ``buffer`` starts with one complete frame."""
    if len(buffer) < fr.FRAME_HEADER_LEN:
        return False
    word = fr.HEADER_STRUCT.unpack_from(buffer, 0)[0]
    return fr.FRAME_HEADER_LEN + (word >> 8) <= len(buffer)


class Role(enum.Enum):
    CLIENT = "client"
    SERVER = "server"


class H2Connection:
    """One endpoint of an HTTP/2 connection."""

    def __init__(
        self,
        role: Role,
        origin_aware: bool = True,
        origin_set: Sequence[str] = (),
        secondary_certs_aware: bool = False,
    ) -> None:
        self.role = role
        self.origin_aware = origin_aware
        self._frame_types = _TYPE_TABLES[bool(origin_aware),
                                         bool(secondary_certs_aware)]
        #: Reassembly buffers for fragmented CERTIFICATE frames.
        self._certificate_buffers: Dict[int, bytearray] = {}
        #: Origins this endpoint will advertise (server only).
        self.local_origin_set: Tuple[str, ...] = tuple(origin_set)
        #: Origins the peer has advertised on this connection.
        self.remote_origin_set: Set[str] = set()
        self.local_settings = Settings()
        self.remote_settings = Settings()
        #: Every stream in use or handed out, until it closes.
        self._streams: Dict[int, Stream] = {}
        #: The watermarks of RFC 7540 §5.1.1: local IDs below the first
        #: and remote ones up to the second are no longer idle.
        self._next_stream_id = 1 if role is Role.CLIENT else 2
        self._highest_remote_stream = 0
        self._outbound = bytearray()
        self._recv_buffer = bytearray()
        self._preface_remaining = (
            fr.CONNECTION_PREFACE if role is Role.SERVER else b""
        )
        self._encoder = HpackEncoder()
        self._decoder = HpackDecoder()
        self._initiated = False
        self._goaway_sent = False
        #: A header block awaiting CONTINUATION: its stream, the
        #: fragments so far, and what takes the whole block.
        self._expected_continuation: Optional[Tuple[
            int, bytearray, Callable[[bytes], List[ev.Event]]]] = None
        self.connection_send_window = self.remote_settings.initial_window_size
        self.connection_recv_window = self.local_settings.initial_window_size
        #: DATA bytes consumed and not yet returned by a WINDOW_UPDATE.
        self._recv_unacked = 0
        #: DATA blocked on flow control, drained as windows reopen:
        #: ``(stream_id, view of the unsent body, end_stream)``.
        self._send_queue: Deque[Tuple[int, memoryview, bool]] = deque()
        #: Whether the queue may hold an entry a drain can act on with
        #: the connection window shut: a zero-length body, or a stream
        #: reset under its queued DATA.  Set where such an entry can
        #: appear, cleared by a drain that has looked at every entry.
        self._windowless_queued = False

    # -- lifecycle --------------------------------------------------------

    def initiate(self, settings: Sequence[Tuple[int, int]] = ()) -> None:
        """Send the preface (client) and initial SETTINGS.

        A server with a configured origin set sends its ORIGIN frame
        immediately after SETTINGS, on stream 0, as RFC 8336 suggests
        doing "as early as possible".
        """
        if self._initiated:
            raise H2ConnectionError(
                ErrorCode.INTERNAL_ERROR, "connection already initiated"
            )
        self._initiated = True
        if self.role is Role.CLIENT:
            self._outbound += fr.CONNECTION_PREFACE
        fr.pack_frame(self._outbound, fr.TYPE_SETTINGS, 0, 0,
                      fr.encode_settings(settings))
        for identifier, value in settings:
            self.local_settings.apply(identifier, value)
        if self.role is Role.SERVER and self.origin_aware and self.local_origin_set:
            self.send_origin(self.local_origin_set)

    def data_to_send(self) -> bytes:
        """Drain queued outbound bytes."""
        data = bytes(self._outbound)
        self._outbound.clear()
        return data

    # -- sending ------------------------------------------------------------

    def get_next_stream_id(self) -> int:
        """Hand out the next local ID, listed as idle until it is used."""
        stream_id = self._next_stream_id
        self._streams[stream_id] = self._stream(stream_id)
        self._next_stream_id += 2
        return stream_id

    def _stream(self, stream_id: int,
                event: Optional[StreamInput] = None) -> Stream:
        """The stream ``event`` is for: the listed one, or else the one
        answer for an ID without an entry, a detached stream in the
        state RFC 7540 §5.1.1 gives it -- CLOSED at or below the highest
        ID its side has used, IDLE above.  HEADERS from the ID's own side
        (odd IDs are the client's), or a RST_STREAM we send, puts an idle
        ID to use and raises that watermark; HEADERS we send on the
        peer's idle ID is refused, and any other input for it is a frame
        received, a PROTOCOL_ERROR (§5.1).
        None is no input: a lookup, or a send the caller then takes
        through the table itself."""
        stream = self._streams.get(stream_id)
        if stream is not None and stream.state is not _IDLE:
            return stream
        local = (stream_id & 1) == (self.role is Role.CLIENT)
        if stream is None:
            stream = Stream(stream_id, self.remote_settings.initial_window_size,
                            self.local_settings.initial_window_size)
            if stream_id <= (self._next_stream_id - 2 if local
                             else self._highest_remote_stream):
                stream.state = _CLOSED
                return stream
        if event in (_I.SEND_HEADERS, _I.RECV_HEADERS, _I.SEND_RST_STREAM):
            if event is _I.SEND_HEADERS and not local:
                raise H2StreamError(stream_id, ErrorCode.PROTOCOL_ERROR,
                                    "cannot open a stream of the peer's")
            if event is _I.RECV_HEADERS and local:
                raise H2ConnectionError(ErrorCode.PROTOCOL_ERROR,
                                        f"peer opened our stream {stream_id}")
            if not local:
                self._highest_remote_stream = stream_id
            elif stream_id >= self._next_stream_id:
                self._next_stream_id = stream_id + 2
        elif event is not None:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR,
                f"cannot {event.value} on idle stream {stream_id}",
            )
        return stream

    def _advance(self, stream: Stream, event: StreamInput) -> None:
        """The one caller of :meth:`Stream.advance`, so the one place a
        stream is listed (leaving IDLE) and dropped (reaching CLOSED)."""
        idle = stream.state is _IDLE
        stream.advance(event)
        if stream.state is _CLOSED:
            self._streams.pop(stream.stream_id, None)
        elif idle:
            self._streams[stream.stream_id] = stream

    def send_headers(
        self,
        stream_id: int,
        headers: Sequence[Header],
        end_stream: bool = False,
    ) -> None:
        if self._goaway_sent:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR, "connection is going away"
            )
        stream = self._stream(stream_id, _I.SEND_HEADERS)
        # HEADERS go out at once, so on a stream with DATA still queued
        # they would pass its body -- and END_STREAM would drop it.
        if stream.state in SENDS_DATA and any(
            queued == stream_id for queued, _, _ in self._send_queue
        ):
            raise H2StreamError(
                stream_id, ErrorCode.PROTOCOL_ERROR,
                f"cannot {_I.SEND_HEADERS.value} ahead of queued DATA",
            )
        self._advance(stream, _I.SEND_HEADERS)
        if end_stream:
            self._advance(stream, _I.SEND_END_STREAM)
        block = self._encoder.encode(headers)
        flags = fr.FLAG_END_HEADERS | (
            fr.FLAG_END_STREAM if end_stream else 0
        )
        fr.pack_frame(self._outbound, fr.TYPE_HEADERS, flags, stream_id, block)

    def send_data(
        self, stream_id: int, data: bytes, end_stream: bool = False
    ) -> None:
        """Send DATA, queueing whatever flow control will not yet admit.

        Queued bytes drain automatically as WINDOW_UPDATE frames arrive;
        callers never see flow-control errors for well-behaved peers.
        """
        state = self._stream(stream_id).state
        if state not in SENDS_DATA:
            raise H2StreamError(
                stream_id, ErrorCode.STREAM_CLOSED,
                f"cannot {_I.SEND_DATA.value} in state {state.value}",
            )
        # The stream ends when that entry drains; this one would be
        # dropped behind it.
        if any(queued == stream_id and ended
               for queued, _, ended in self._send_queue):
            raise H2StreamError(
                stream_id, ErrorCode.STREAM_CLOSED,
                f"cannot {_I.SEND_DATA.value} after a queued END_STREAM",
            )
        if not data:
            self._windowless_queued = True
        self._send_queue.append((stream_id, memoryview(data), end_stream))
        self._drain_send_queue()

    def _drain_send_queue(self) -> None:
        """Emit as much queued DATA as the current windows admit.

        Entries blocked only on their *stream* window are rotated to
        the back so one stalled stream cannot head-of-line-block the
        rest of the connection.  A queued body is a ``memoryview``, so
        what remains after a frame is a re-slice, not a copy, and each
        frame is packed straight into the outbound buffer.

        A frame is the smallest of the body, the two windows and the
        peer's frame size, and debits the stream window.  An entry
        whose stream was reset is dropped unsent; nothing else ends a
        stream under queued DATA, since :meth:`send_headers` and
        :meth:`send_data` refuse to.
        """
        queue = self._send_queue
        # Settings caps this at 2**24 - 1, the most the header's 24-bit
        # length can say (a larger size would not even pack).
        max_frame = self.remote_settings.max_frame_size
        streams = self._streams
        out = self._outbound
        pack_header = fr.HEADER_STRUCT.pack
        skipped = 0
        while skipped < len(queue):
            stream_id, body, end_stream = queue[0]
            stream = streams.get(stream_id)
            if stream is None or stream.state not in SENDS_DATA:
                queue.popleft()
                continue
            length = size = len(body)
            if length:
                limit = self.connection_send_window
                if limit <= 0:
                    return  # nothing can move until a connection update
                window = stream.send_window
                if window <= 0:
                    queue.rotate(-1)
                    skipped += 1
                    continue
                if window < limit:
                    limit = window
                if max_frame < limit:
                    limit = max_frame
                if limit < length:
                    size = limit
            fin = end_stream and size == length
            stream.send_window -= size
            if fin:
                self._advance(stream, _I.SEND_END_STREAM)
            self.connection_send_window -= size
            out += pack_header(
                (size << 8) | fr.TYPE_DATA,
                fr.FLAG_END_STREAM if fin else 0,
                stream_id & 0x7FFFFFFF,
            )
            skipped = 0
            if size == length:
                out += body
                queue.popleft()
            else:
                out += body[:size]
                queue[0] = (stream_id, body[size:], end_stream)
        # Every entry still queued was just seen waiting on its stream
        # window, so none of them can move without one.
        self._windowless_queued = False

    def send_origin(self, origins: Sequence[str]) -> None:
        """Advertise an origin set (server, stream 0)."""
        if self.role is not Role.SERVER:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR,
                "only servers send ORIGIN frames (RFC 8336 §2)",
            )
        self.local_origin_set = tuple(origins)
        fr.pack_frame(self._outbound, fr.TYPE_ORIGIN, 0, 0,
                      fr.encode_origin(origins))

    def send_certificate(self, cert_id: int, chain_data: bytes) -> None:
        """Provide a secondary certificate chain on stream 0 (server),
        fragmenting to the peer's max frame size."""
        if self.role is not Role.SERVER:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR,
                "only servers provide secondary certificates here",
            )
        max_fragment = self.remote_settings.max_frame_size - 1
        chunks = [
            chain_data[i : i + max_fragment]
            for i in range(0, len(chain_data), max_fragment)
        ] or [b""]
        for index, chunk in enumerate(chunks):
            last = index == len(chunks) - 1
            flags = 0 if last else fr.FLAG_TO_BE_CONTINUED
            fr.pack_frame(self._outbound, fr.TYPE_CERTIFICATE, flags, 0,
                          fr.encode_certificate(cert_id, chunk))

    def send_rst_stream(
        self, stream_id: int, code: ErrorCode = ErrorCode.CANCEL
    ) -> None:
        self._advance(self._stream(stream_id, _I.SEND_RST_STREAM),
                      _I.SEND_RST_STREAM)
        if self._send_queue:
            self._windowless_queued = True
        fr.pack_frame(self._outbound, fr.TYPE_RST_STREAM, 0, stream_id,
                      int(code).to_bytes(4, "big"))

    def send_goaway(
        self, code: ErrorCode = ErrorCode.NO_ERROR, debug: bytes = b""
    ) -> None:
        self._goaway_sent = True
        fr.pack_frame(
            self._outbound, fr.TYPE_GOAWAY, 0, 0,
            fr.encode_goaway(self._highest_remote_stream, code, debug),
        )

    def send_window_update(self, stream_id: int, increment: int) -> None:
        if stream_id:
            stream = self._stream(stream_id)
            self._advance(stream, _I.SEND_WINDOW_UPDATE)
            stream.recv_window += increment
        else:
            self.connection_recv_window += increment
        self._outbound += fr.WINDOW_UPDATE_STRUCT.pack(
            fr.WINDOW_UPDATE_WORD, 0, stream_id & 0x7FFFFFFF, increment
        )

    # -- receiving ------------------------------------------------------------

    def receive_data(self, data: bytes) -> List[ev.Event]:
        """Feed wire bytes; returns the events they produced.

        Frames are parsed straight out of ``data``; only an incomplete
        tail is kept in the receive buffer, and a call that finds one
        there (or a preface still owed) parses the two joined.  Each
        frame's header is unpacked once, here, and the frame goes
        through its row of the type table (:meth:`_receive_frame`).

        Protocol violations raise :class:`H2ConnectionError` after
        queueing a GOAWAY, mirroring how a real endpoint fails.  Frames
        that precede the bad frame in the same read have been handled
        in full -- their state changes stand and their replies are
        queued ahead of the GOAWAY -- but their events are lost with
        the exception; the bad frame is consumed, and whatever followed
        it stays buffered, unparsed.
        """
        events: List[ev.Event] = []
        buffer = self._recv_buffer
        if buffer or self._preface_remaining:
            buffer += data
            if self._preface_remaining:
                take = min(len(buffer), len(self._preface_remaining))
                if buffer[:take] != self._preface_remaining[:take]:
                    raise H2ConnectionError(
                        ErrorCode.PROTOCOL_ERROR, "bad connection preface"
                    )
                self._preface_remaining = self._preface_remaining[take:]
                del buffer[:take]
            if not _holds_a_frame(buffer):
                return events
            data = bytes(buffer)
            buffer.clear()
        elif data.__class__ is not bytes:
            data = bytes(data)  # payload slices are handed out as events
        total = len(data)
        offset = 0
        unpack_header = fr.HEADER_STRUCT.unpack_from
        receive_frame = self._receive_frame
        try:
            while total - offset >= fr.FRAME_HEADER_LEN:
                word, flags, stream_id = unpack_header(data, offset)
                payload_at = offset + fr.FRAME_HEADER_LEN
                end = payload_at + (word >> 8)
                if end > total:
                    break
                offset = end  # consumed, come what may
                events += receive_frame(word & 0xFF, flags,
                                        stream_id & 0x7FFFFFFF,
                                        data[payload_at:end])
        except H2ConnectionError as error:
            self.send_goaway(error.code)
            raise
        finally:
            if offset < total:
                buffer += data[offset:]
        return events

    def _receive_frame(self, frame_type: int, flags: int, stream_id: int,
                       payload: bytes) -> List[ev.Event]:
        """One whole frame through its row of the type table, in this
        order: its payload decoded (a malformed one raises), refused if
        a CONTINUATION is expected, held to its stream-identifier rule,
        handled.  A type without a row is ignored (RFC 7540 §4.1)."""
        row = self._frame_types.get(frame_type)
        if row is not None:
            name, on_stream, decode, handle = row
            if decode is not None:
                payload = decode(flags, payload)
        if (self._expected_continuation is not None
                and frame_type != fr.TYPE_CONTINUATION):
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR,
                "interleaved frame while expecting CONTINUATION",
            )
        if row is None:
            return self._ignore(frame_type, stream_id)
        if on_stream is not None and (stream_id != 0) is not on_stream:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR, f"{name} on stream {stream_id}"
            )
        return handle(self, stream_id, flags, payload)

    def _ignore(self, frame_type: int, stream_id: int) -> List[ev.Event]:
        # RFC 7540 §4.1: ignore and discard.  The event lets tests see
        # what was dropped.
        return [ev.UnknownFrameReceived(raw_type=frame_type,
                                        stream_id=stream_id)]

    def _on_data(self, stream_id: int, flags: int,
                 payload: bytes) -> List[ev.Event]:
        """Flow control counts the whole wire payload, padding included
        (RFC 7540 §6.9.1); the event carries the data without it."""
        length = len(payload)
        data = (fr.unpad(flags, payload, "DATA")
                if flags & fr.FLAG_PADDED else payload)
        end_stream = flags & fr.FLAG_END_STREAM != 0
        stream = self._stream(stream_id, _I.RECV_DATA)
        if length > self.connection_recv_window:
            raise H2ConnectionError(
                ErrorCode.FLOW_CONTROL_ERROR,
                "connection receive window overflow",
            )
        self.connection_recv_window -= length
        if length:
            # Refused below or not, the frame counts against the
            # connection, as does one that closes its stream.
            unacked = self._recv_unacked + length
            if unacked >= self.connection_recv_window:
                self.send_window_update(0, unacked)
                unacked = 0
            self._recv_unacked = unacked
        try:
            self._advance(stream, _I.RECV_DATA)
            if length > stream.recv_window:
                raise H2StreamError(
                    stream_id, ErrorCode.FLOW_CONTROL_ERROR,
                    f"peer overflowed receive window by "
                    f"{length - stream.recv_window} bytes",
                )
        except H2StreamError as error:
            self.send_rst_stream(stream_id, error.code)
            return [ev.StreamReset(stream_id, error.code)]
        stream.recv_window -= length
        if end_stream:
            self._advance(stream, _I.RECV_END_STREAM)
        events: List[ev.Event] = [
            ev.DataReceived(stream_id, data, length, end_stream)
        ]
        if length:
            unacked = stream.recv_unacked + length
            if unacked >= stream.recv_window and stream.state is not _CLOSED:
                self.send_window_update(stream_id, unacked)
                unacked = 0
            stream.recv_unacked = unacked
        if end_stream:
            events.append(ev.StreamEnded(stream_id))
        return events

    def _on_window_update(self, stream_id: int, flags: int,
                          increment: int) -> List[ev.Event]:
        """Opens a window, and drains the send queue only if it can
        move: it is not empty, and either the connection window is open
        or an entry needs no window at all (``_windowless_queued``).
        Any other drain would return at its first look at the head of
        the queue."""
        if not increment:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR, "WINDOW_UPDATE with zero increment"
            )
        if stream_id:
            stream = self._stream(stream_id, _I.RECV_WINDOW_UPDATE)
            self._advance(stream, _I.RECV_WINDOW_UPDATE)
            stream.send_window += increment
        else:
            self.connection_send_window += increment
        if self._send_queue and (self.connection_send_window > 0
                                 or self._windowless_queued):
            self._drain_send_queue()
        return [ev.WindowUpdated(stream_id, increment)]

    def _on_headers(self, stream_id: int, flags: int,
                    block: bytes) -> List[ev.Event]:
        end_stream = flags & fr.FLAG_END_STREAM != 0
        if flags & fr.FLAG_END_HEADERS:
            return self._complete_headers(stream_id, end_stream, block)
        self._expected_continuation = (
            stream_id, bytearray(block),
            partial(self._complete_headers, stream_id, end_stream),
        )
        return []

    def _on_continuation(self, stream_id: int, flags: int,
                         block: bytes) -> List[ev.Event]:
        if self._expected_continuation is None:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR, "unexpected CONTINUATION"
            )
        expected, pending, complete = self._expected_continuation
        if stream_id != expected:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR,
                f"CONTINUATION for stream {stream_id}, expected {expected}",
            )
        pending += block
        if not flags & fr.FLAG_END_HEADERS:
            return []
        self._expected_continuation = None
        return complete(bytes(pending))

    def _decode_block(self, block: bytes) -> List[Header]:
        """One whole header block, through the connection's decoder."""
        try:
            return self._decoder.decode(block)
        except HpackError as error:
            raise H2ConnectionError(
                ErrorCode.COMPRESSION_ERROR, str(error)
            ) from error

    def _complete_headers(
        self, stream_id: int, end_stream: bool, block: bytes
    ) -> List[ev.Event]:
        headers = self._decode_block(block)
        stream = self._stream(stream_id, _I.RECV_HEADERS)
        try:
            self._advance(stream, _I.RECV_HEADERS)
            if end_stream:
                self._advance(stream, _I.RECV_END_STREAM)
        except H2StreamError as error:
            self.send_rst_stream(stream_id, error.code)
            return [ev.StreamReset(stream_id, error.code)]
        if self.role is Role.SERVER:
            events: List[ev.Event] = [
                ev.RequestReceived(stream_id, headers, end_stream)
            ]
        else:
            events = [ev.ResponseReceived(stream_id, headers, end_stream)]
        if end_stream:
            events.append(ev.StreamEnded(stream_id))
        return events

    def _on_priority(self, stream_id: int, flags: int,
                     payload: bytes) -> List[ev.Event]:
        return []  # scheduling hints unused

    def _on_rst_stream(self, stream_id: int, flags: int,
                       code: ErrorCode) -> List[ev.Event]:
        self._advance(self._stream(stream_id, _I.RECV_RST_STREAM),
                      _I.RECV_RST_STREAM)
        if self._send_queue:
            self._windowless_queued = True
        return [ev.StreamReset(stream_id, code)]

    def _on_settings(self, stream_id: int, flags: int,
                     settings: Tuple[Tuple[int, int], ...]) -> List[ev.Event]:
        if flags & fr.FLAG_ACK:
            return [ev.SettingsAcked()]
        for identifier, value in settings:
            self.remote_settings.apply(identifier, value)
            if identifier == SettingId.HEADER_TABLE_SIZE:
                self._encoder.set_max_table_size(value)
        fr.pack_frame(self._outbound, fr.TYPE_SETTINGS, fr.FLAG_ACK, 0, b"")
        return [ev.SettingsReceived(settings=settings)]

    def _on_push_promise(self, stream_id: int, flags: int,
                         block: bytes) -> List[ev.Event]:
        if self.role is Role.SERVER:
            # RFC 7540 §8.2: only a server pushes, whatever the setting.
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR, "PUSH_PROMISE sent to a server"
            )
        if not self.local_settings.enable_push:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR, "push is disabled"
            )
        cancel = partial(self._cancel_push,
                         int.from_bytes(block[:4], "big") & 0x7FFFFFFF)
        if flags & fr.FLAG_END_HEADERS:
            return cancel(block[4:])
        self._expected_continuation = (stream_id, bytearray(block[4:]),
                                       cancel)
        return []

    def _cancel_push(self, promised_stream_id: int,
                     block: bytes) -> List[ev.Event]:
        """Decode a promise's whole block, so the HPACK table stays in
        step with the server's, and reset the promised stream -- an
        idle one of the server's -- with CANCEL (RFC 7540 §8.2.2)."""
        self._decode_block(block)
        if (promised_stream_id & 1
                or promised_stream_id <= self._highest_remote_stream):
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR,
                f"PUSH_PROMISE of stream {promised_stream_id}",
            )
        self.send_rst_stream(promised_stream_id, ErrorCode.CANCEL)
        return []

    def _on_ping(self, stream_id: int, flags: int,
                 opaque: bytes) -> List[ev.Event]:
        if flags & fr.FLAG_ACK:
            return [ev.PingAcked(opaque=opaque)]
        fr.pack_frame(self._outbound, fr.TYPE_PING, fr.FLAG_ACK, 0, opaque)
        return [ev.PingReceived(opaque=opaque)]

    def _on_goaway(self, stream_id: int, flags: int,
                   fields: Tuple[int, ErrorCode, bytes]) -> List[ev.Event]:
        last_stream_id, code, debug_data = fields
        return [ev.GoAwayReceived(last_stream_id=last_stream_id,
                                  error_code=code, debug_data=debug_data)]

    def _on_origin(self, stream_id: int, flags: int,
                   origins: Optional[Tuple[str, ...]]) -> List[ev.Event]:
        if stream_id or origins is None:
            # RFC 8336 §2.1: one off stream 0, or malformed, is ignored.
            return self._ignore(fr.TYPE_ORIGIN, stream_id)
        if self.role is Role.SERVER:
            # Clients don't send ORIGIN; ignore per RFC 8336 §2.
            return []
        # RFC 8336 §2.3: the frame replaces the origin set.
        self.remote_origin_set = set(origins)
        return [ev.OriginReceived(origins=origins)]

    def _on_certificate(
        self, stream_id: int, flags: int,
        fields: Optional[Tuple[int, bytes]],
    ) -> List[ev.Event]:
        if stream_id or fields is None:
            return self._ignore(fr.TYPE_CERTIFICATE, stream_id)
        cert_id, fragment = fields
        buffer = self._certificate_buffers.setdefault(cert_id, bytearray())
        buffer += fragment
        if flags & fr.FLAG_TO_BE_CONTINUED:
            return []
        chain_data = bytes(self._certificate_buffers.pop(cert_id))
        return [
            ev.SecondaryCertificateReceived(
                cert_id=cert_id, chain_data=chain_data
            )
        ]


#: The type table: ``type code -> (name, on_stream, decode, handle)``.
#: ``on_stream`` is the RFC 7540 stream-identifier rule: True, the
#: frame belongs to a stream and stream 0 is a PROTOCOL_ERROR; False,
#: it belongs to the connection and any other stream is one (§6.5,
#: §6.7, §6.8); None, the handler decides.  ``decode`` turns the
#: payload into what ``handle`` takes (None: the payload as it is).
_FRAME_TYPES = {
    fr.TYPE_DATA: ("DATA", True, None, H2Connection._on_data),
    fr.TYPE_HEADERS: (
        "HEADERS", True, fr.decode_headers, H2Connection._on_headers),
    fr.TYPE_PRIORITY: (
        "PRIORITY", True, fr.decode_priority, H2Connection._on_priority),
    fr.TYPE_RST_STREAM: (
        "RST_STREAM", True, fr.decode_rst_stream,
        H2Connection._on_rst_stream),
    fr.TYPE_SETTINGS: (
        "SETTINGS", False, fr.decode_settings, H2Connection._on_settings),
    fr.TYPE_PUSH_PROMISE: (
        "PUSH_PROMISE", True, fr.decode_push_promise,
        H2Connection._on_push_promise),
    fr.TYPE_PING: ("PING", False, fr.decode_ping, H2Connection._on_ping),
    fr.TYPE_GOAWAY: (
        "GOAWAY", False, fr.decode_goaway, H2Connection._on_goaway),
    fr.TYPE_WINDOW_UPDATE: (
        "WINDOW_UPDATE", None, fr.decode_window_update,
        H2Connection._on_window_update),
    fr.TYPE_CONTINUATION: (
        "CONTINUATION", True, None, H2Connection._on_continuation),
    fr.TYPE_ORIGIN: (
        "ORIGIN", None, fr.decode_origin, H2Connection._on_origin),
    fr.TYPE_CERTIFICATE: (
        "CERTIFICATE", None, fr.decode_certificate,
        H2Connection._on_certificate),
}

#: The rows an endpoint reads, by ``(origin_aware,
#: secondary_certs_aware)``: one that does not know ORIGIN or
#: CERTIFICATE has no row for it and ignores the frame as unknown --
#: the fail-open the paper relies on (§4.3, §6.7).
_TYPE_TABLES = {
    (origin, certs): {
        frame_type: row for frame_type, row in _FRAME_TYPES.items()
        if (origin or frame_type != fr.TYPE_ORIGIN)
        and (certs or frame_type != fr.TYPE_CERTIFICATE)
    }
    for origin in (False, True)
    for certs in (False, True)
}
