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
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

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
from repro.h2.stream import Stream, StreamState

Header = Tuple[str, str]

_OPEN = StreamState.OPEN
_HALF_CLOSED_REMOTE = StreamState.HALF_CLOSED_REMOTE
_CLOSED = StreamState.CLOSED


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
        self.secondary_certs_aware = secondary_certs_aware
        #: Reassembly buffers for fragmented CERTIFICATE frames.
        self._certificate_buffers: Dict[int, bytearray] = {}
        #: Origins this endpoint will advertise (server only).
        self.local_origin_set: Tuple[str, ...] = tuple(origin_set)
        #: Origins the peer has advertised on this connection.
        self.remote_origin_set: Set[str] = set()
        self.local_settings = Settings()
        self.remote_settings = Settings()
        self._streams: Dict[int, Stream] = {}
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
        self._expected_continuation: Optional[Tuple[int, bytearray, bool]] = None
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
        self._send_frame(fr.SettingsFrame(settings=tuple(settings)))
        for identifier, value in settings:
            self.local_settings.apply(identifier, value)
        if self.role is Role.SERVER and self.origin_aware and self.local_origin_set:
            self.send_origin(self.local_origin_set)

    def data_to_send(self) -> bytes:
        """Drain queued outbound bytes."""
        data = bytes(self._outbound)
        self._outbound.clear()
        return data

    def stream(self, stream_id: int) -> Optional[Stream]:
        return self._streams.get(stream_id)

    # -- sending ------------------------------------------------------------

    def get_next_stream_id(self) -> int:
        stream_id = self._next_stream_id
        self._next_stream_id += 2
        return stream_id

    def _get_or_create_stream(self, stream_id: int) -> Stream:
        stream = self._streams.get(stream_id)
        if stream is None:
            stream = Stream(
                stream_id,
                send_window=self.remote_settings.initial_window_size,
                recv_window=self.local_settings.initial_window_size,
            )
            self._streams[stream_id] = stream
        return stream

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
        stream = self._get_or_create_stream(stream_id)
        stream.send_headers(end_stream)
        block = self._encoder.encode(headers)
        flags = fr.FLAG_END_HEADERS | (
            fr.FLAG_END_STREAM if end_stream else 0
        )
        self._send_frame(
            fr.HeadersFrame(stream_id=stream_id, flags=flags,
                            header_block=block)
        )

    def send_data(
        self, stream_id: int, data: bytes, end_stream: bool = False
    ) -> None:
        """Send DATA, queueing whatever flow control will not yet admit.

        Queued bytes drain automatically as WINDOW_UPDATE frames arrive;
        callers never see flow-control errors for well-behaved peers.
        """
        stream = self._streams.get(stream_id)
        if stream is None:
            raise H2StreamError(
                stream_id, ErrorCode.STREAM_CLOSED, "no such stream"
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
        peer's frame size.  One that leaves its stream open only debits
        the stream window; one that ends the stream, carries nothing or
        finds its stream unable to send goes through
        :meth:`Stream.send_data`, which closes or refuses.
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
            if stream is None or stream.state is _CLOSED:
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
            state = stream.state
            if size and not fin and (
                state is _OPEN or state is _HALF_CLOSED_REMOTE
            ):
                stream.send_window -= size
            else:
                stream.send_data(size, fin)
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
        self._send_frame(fr.OriginFrame(origins=tuple(origins)))

    def send_rst_stream(
        self, stream_id: int, code: ErrorCode = ErrorCode.CANCEL
    ) -> None:
        stream = self._get_or_create_stream(stream_id)
        stream.reset()
        if self._send_queue:
            self._windowless_queued = True
        self._send_frame(
            fr.RstStreamFrame(stream_id=stream_id, error_code=code)
        )

    def send_goaway(
        self, code: ErrorCode = ErrorCode.NO_ERROR, debug: bytes = b""
    ) -> None:
        self._goaway_sent = True
        self._send_frame(
            fr.GoAwayFrame(
                last_stream_id=self._highest_remote_stream,
                error_code=code,
                debug_data=debug,
            )
        )

    def send_window_update(self, stream_id: int, increment: int) -> None:
        if stream_id:
            stream = self._streams.get(stream_id)
            if stream is not None:
                stream.replenish_recv_window(increment)
        else:
            self.connection_recv_window += increment
        self._outbound += fr.WINDOW_UPDATE_STRUCT.pack(
            fr.WINDOW_UPDATE_WORD, 0, stream_id & 0x7FFFFFFF, increment
        )

    def _send_frame(self, frame: fr.Frame) -> None:
        frame.serialize_into(self._outbound)

    # -- receiving ------------------------------------------------------------

    def receive_data(self, data: bytes) -> List[ev.Event]:
        """Feed wire bytes; returns the events they produced.

        Frames are parsed straight out of ``data``; only an incomplete
        tail is kept in the receive buffer, and a call that finds one
        there (or a preface still owed) parses the two joined.  The
        body path -- DATA and 4-byte WINDOW_UPDATE -- is handled from
        the header fields and a payload slice; every other frame, and
        every frame while a CONTINUATION is expected, is parsed by the
        :mod:`repro.h2.frames` classes (as is padded DATA, for its
        padding checks, before it joins the body path).

        A WINDOW_UPDATE opens a window and drains the send queue only
        if the queue can move: it is not empty, and either the
        connection window is open or an entry needs no window at all
        (``_windowless_queued``).  Any other drain would return at its
        first look at the head of the queue.

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
        streams = self._streams
        queue = self._send_queue
        try:
            while total - offset >= fr.FRAME_HEADER_LEN:
                word, flags, stream_id = unpack_header(data, offset)
                payload_at = offset + fr.FRAME_HEADER_LEN
                end = payload_at + (word >> 8)
                if end > total:
                    break
                frame_at, offset = offset, end  # consumed, come what may
                frame_type = word & 0xFF
                stream_id &= 0x7FFFFFFF
                body_path = self._expected_continuation is None
                if body_path and frame_type == fr.TYPE_DATA:
                    if flags & fr.FLAG_PADDED:
                        payload = fr.parse_frame(data[frame_at:end])[0].data
                    else:
                        payload = data[payload_at:end]
                    self._on_data(
                        stream_id, payload, end - payload_at,
                        flags & fr.FLAG_END_STREAM != 0, events,
                    )
                elif (body_path and frame_type == fr.TYPE_WINDOW_UPDATE
                      and end - payload_at == 4):
                    increment = fr.WINDOW_UPDATE_STRUCT.unpack_from(
                        data, frame_at
                    )[3] & 0x7FFFFFFF
                    if not increment:
                        raise H2ConnectionError(
                            ErrorCode.PROTOCOL_ERROR,
                            "WINDOW_UPDATE with zero increment",
                        )
                    if stream_id:
                        stream = streams.get(stream_id)
                        if stream is not None:
                            stream.send_window += increment
                    else:
                        self.connection_send_window += increment
                    if queue and (self.connection_send_window > 0
                                  or self._windowless_queued):
                        self._drain_send_queue()
                    events.append(ev.WindowUpdated(stream_id, increment))
                else:
                    frame = fr.parse_frame(data[frame_at:end])[0]
                    events += self._handle_frame(frame)
        except H2ConnectionError as error:
            self.send_goaway(error.code)
            raise
        finally:
            if offset < total:
                buffer += data[offset:]
        return events

    def _handle_frame(self, frame: fr.Frame) -> List[ev.Event]:
        if self._expected_continuation is not None and not isinstance(
            frame, fr.ContinuationFrame
        ):
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR,
                "interleaved frame while expecting CONTINUATION",
            )
        return _FRAME_DISPATCH[frame.__class__](self, frame)

    def _on_goaway(self, frame: fr.GoAwayFrame) -> List[ev.Event]:
        return [
            ev.GoAwayReceived(
                last_stream_id=frame.last_stream_id,
                error_code=frame.error_code,
                debug_data=frame.debug_data,
            )
        ]

    def _on_priority(self, frame: fr.PriorityFrame) -> List[ev.Event]:
        return []  # parsed, scheduling hints unused

    def _on_push_promise(self, frame: fr.PushPromiseFrame) -> List[ev.Event]:
        if not self.local_settings.enable_push:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR, "push is disabled"
            )
        return []

    def _on_unknown(self, frame: fr.UnknownFrame) -> List[ev.Event]:
        # RFC 7540 §4.1: ignore and discard.
        return [
            ev.UnknownFrameReceived(
                raw_type=frame.raw_type,
                stream_id=frame.stream_id,
            )
        ]

    def _on_data(
        self,
        stream_id: int,
        data: bytes,
        length: int,
        end_stream: bool,
        events: List[ev.Event],
    ) -> None:
        """One DATA frame: ``data`` is the payload without padding,
        ``length`` the whole wire payload, which is what flow control
        counts (RFC 7540 §6.9.1)."""
        if stream_id == 0:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR, "DATA on stream 0"
            )
        stream = self._streams.get(stream_id)
        if stream is None:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR,
                f"DATA for unknown stream {stream_id}",
            )
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
            stream.receive_data(length, end_stream)
        except H2StreamError as error:
            self.send_rst_stream(stream_id, error.code)
            events.append(ev.StreamReset(stream_id, error.code))
            return
        events.append(ev.DataReceived(stream_id, data, length, end_stream))
        if length:
            unacked = stream.recv_unacked + length
            if unacked >= stream.recv_window and stream.state is not _CLOSED:
                self.send_window_update(stream_id, unacked)
                unacked = 0
            stream.recv_unacked = unacked
        if end_stream:
            events.append(ev.StreamEnded(stream_id))

    def _on_headers(self, frame: fr.HeadersFrame) -> List[ev.Event]:
        if frame.stream_id == 0:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR, "HEADERS on stream 0"
            )
        if not frame.end_headers:
            self._expected_continuation = (
                frame.stream_id,
                bytearray(frame.header_block),
                frame.end_stream,
            )
            return []
        return self._complete_headers(
            frame.stream_id, bytes(frame.header_block), frame.end_stream
        )

    def _on_continuation(self, frame: fr.ContinuationFrame) -> List[ev.Event]:
        if self._expected_continuation is None:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR, "unexpected CONTINUATION"
            )
        stream_id, block, end_stream = self._expected_continuation
        if frame.stream_id != stream_id:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR,
                f"CONTINUATION for stream {frame.stream_id}, "
                f"expected {stream_id}",
            )
        block += frame.header_block
        if not frame.end_headers:
            self._expected_continuation = (stream_id, block, end_stream)
            return []
        self._expected_continuation = None
        return self._complete_headers(stream_id, bytes(block), end_stream)

    def _complete_headers(
        self, stream_id: int, block: bytes, end_stream: bool
    ) -> List[ev.Event]:
        try:
            headers = self._decoder.decode(block)
        except HpackError as error:
            raise H2ConnectionError(
                ErrorCode.COMPRESSION_ERROR, str(error)
            ) from error
        remote_initiated = (stream_id % 2 == 1) == (self.role is Role.SERVER)
        if remote_initiated and stream_id > self._highest_remote_stream:
            self._highest_remote_stream = stream_id
        stream = self._get_or_create_stream(stream_id)
        try:
            stream.receive_headers(end_stream)
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

    def _on_settings(self, frame: fr.SettingsFrame) -> List[ev.Event]:
        if frame.is_ack:
            return [ev.SettingsAcked()]
        for identifier, value in frame.settings:
            self.remote_settings.apply(identifier, value)
            if identifier == SettingId.HEADER_TABLE_SIZE:
                self._encoder.set_max_table_size(value)
        self._send_frame(fr.SettingsFrame(flags=fr.FLAG_ACK))
        return [ev.SettingsReceived(settings=frame.settings)]

    def _on_rst(self, frame: fr.RstStreamFrame) -> List[ev.Event]:
        if frame.stream_id == 0:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR, "RST_STREAM on stream 0"
            )
        stream = self._streams.get(frame.stream_id)
        if stream is None:
            raise H2ConnectionError(
                ErrorCode.PROTOCOL_ERROR,
                f"RST_STREAM for idle stream {frame.stream_id}",
            )
        stream.reset()
        if self._send_queue:
            self._windowless_queued = True
        return [ev.StreamReset(frame.stream_id, frame.error_code)]

    def _on_ping(self, frame: fr.PingFrame) -> List[ev.Event]:
        if frame.is_ack:
            return [ev.PingAcked(opaque=frame.opaque)]
        self._send_frame(
            fr.PingFrame(flags=fr.FLAG_ACK, opaque=frame.opaque)
        )
        return [ev.PingReceived(opaque=frame.opaque)]

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
            self._send_frame(
                fr.CertificateFrame(flags=flags, cert_id=cert_id,
                                    fragment=chunk)
            )

    def _on_certificate(self, frame: fr.CertificateFrame) -> List[ev.Event]:
        if not self.secondary_certs_aware:
            # Fail-open, exactly like an unknown frame type.
            return [
                ev.UnknownFrameReceived(
                    raw_type=fr.TYPE_CERTIFICATE,
                    stream_id=frame.stream_id,
                )
            ]
        buffer = self._certificate_buffers.setdefault(
            frame.cert_id, bytearray()
        )
        buffer += frame.fragment
        if frame.to_be_continued:
            return []
        chain_data = bytes(self._certificate_buffers.pop(frame.cert_id))
        return [
            ev.SecondaryCertificateReceived(
                cert_id=frame.cert_id, chain_data=chain_data
            )
        ]

    def _on_origin(self, frame: fr.OriginFrame) -> List[ev.Event]:
        if not self.origin_aware:
            # Fail-open: an ORIGIN-unaware endpoint must treat the
            # frame as unknown and ignore it.
            return [
                ev.UnknownFrameReceived(
                    raw_type=fr.TYPE_ORIGIN,
                    stream_id=frame.stream_id,
                )
            ]
        if self.role is Role.SERVER:
            # Clients don't send ORIGIN; ignore per RFC 8336 §2.
            return []
        # RFC 8336 §2.3: the frame replaces the origin set.
        self.remote_origin_set = set(frame.origins)
        return [ev.OriginReceived(origins=frame.origins)]


#: Exact-type dispatch for the frames ``receive_data`` leaves to the
#: codec.  DATA and WINDOW_UPDATE are absent: ``receive_data`` handles
#: them itself, and a parsed one reaches ``_handle_frame`` only while a
#: CONTINUATION is expected, to be refused.
_FRAME_DISPATCH = {
    fr.HeadersFrame: H2Connection._on_headers,
    fr.ContinuationFrame: H2Connection._on_continuation,
    fr.SettingsFrame: H2Connection._on_settings,
    fr.RstStreamFrame: H2Connection._on_rst,
    fr.PingFrame: H2Connection._on_ping,
    fr.GoAwayFrame: H2Connection._on_goaway,
    fr.OriginFrame: H2Connection._on_origin,
    fr.CertificateFrame: H2Connection._on_certificate,
    fr.PriorityFrame: H2Connection._on_priority,
    fr.PushPromiseFrame: H2Connection._on_push_promise,
    fr.UnknownFrame: H2Connection._on_unknown,
}
