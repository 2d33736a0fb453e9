"""Per-stream state machine (RFC 7540 §5.1)."""

from __future__ import annotations

import enum

from repro.h2.errors import ErrorCode, H2StreamError


class StreamState(enum.Enum):
    IDLE = "idle"
    OPEN = "open"
    HALF_CLOSED_LOCAL = "half-closed (local)"
    HALF_CLOSED_REMOTE = "half-closed (remote)"
    CLOSED = "closed"


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

    # -- sending ------------------------------------------------------------

    def send_headers(self, end_stream: bool) -> None:
        if self.state is StreamState.IDLE:
            self.state = (
                StreamState.HALF_CLOSED_LOCAL if end_stream
                else StreamState.OPEN
            )
        elif self.state in (StreamState.OPEN, StreamState.HALF_CLOSED_REMOTE):
            # Trailers, or a response on a half-closed-remote stream.
            if end_stream:
                self._close_local()
        else:
            raise H2StreamError(
                self.stream_id, ErrorCode.STREAM_CLOSED,
                f"cannot send HEADERS in state {self.state.value}",
            )

    def send_data(self, nbytes: int, end_stream: bool) -> None:
        if self.state not in (StreamState.OPEN, StreamState.HALF_CLOSED_REMOTE):
            raise H2StreamError(
                self.stream_id, ErrorCode.STREAM_CLOSED,
                f"cannot send DATA in state {self.state.value}",
            )
        if nbytes > self.send_window:
            raise H2StreamError(
                self.stream_id, ErrorCode.FLOW_CONTROL_ERROR,
                f"DATA of {nbytes} bytes exceeds send window "
                f"{self.send_window}",
            )
        self.send_window -= nbytes
        if end_stream:
            self._close_local()

    def _close_local(self) -> None:
        if self.state is StreamState.OPEN:
            self.state = StreamState.HALF_CLOSED_LOCAL
        elif self.state is StreamState.HALF_CLOSED_REMOTE:
            self.state = StreamState.CLOSED

    # -- receiving ------------------------------------------------------------

    def receive_headers(self, end_stream: bool) -> None:
        if self.state is StreamState.IDLE:
            self.state = (
                StreamState.HALF_CLOSED_REMOTE if end_stream
                else StreamState.OPEN
            )
        elif self.state in (StreamState.OPEN, StreamState.HALF_CLOSED_LOCAL):
            # A response on our request, or trailers.
            if end_stream:
                self._close_remote()
        else:
            raise H2StreamError(
                self.stream_id, ErrorCode.STREAM_CLOSED,
                f"HEADERS received in state {self.state.value}",
            )

    def receive_data(self, nbytes: int, end_stream: bool) -> None:
        if self.state not in (StreamState.OPEN, StreamState.HALF_CLOSED_LOCAL):
            raise H2StreamError(
                self.stream_id, ErrorCode.STREAM_CLOSED,
                f"DATA received in state {self.state.value}",
            )
        if nbytes > self.recv_window:
            raise H2StreamError(
                self.stream_id, ErrorCode.FLOW_CONTROL_ERROR,
                f"peer overflowed receive window by "
                f"{nbytes - self.recv_window} bytes",
            )
        self.recv_window -= nbytes
        if end_stream:
            self._close_remote()

    def _close_remote(self) -> None:
        if self.state is StreamState.OPEN:
            self.state = StreamState.HALF_CLOSED_REMOTE
        elif self.state is StreamState.HALF_CLOSED_LOCAL:
            self.state = StreamState.CLOSED

    # -- reset / windows ------------------------------------------------------

    def reset(self) -> None:
        self.state = StreamState.CLOSED

    def replenish_recv_window(self, delta: int) -> None:
        self.recv_window += delta

    @property
    def closed(self) -> bool:
        return self.state is StreamState.CLOSED

    def __repr__(self) -> str:
        return f"Stream({self.stream_id}, {self.state.value})"
