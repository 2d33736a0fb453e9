"""Stream state machine unit tests (RFC 7540 §5.1)."""

import pytest

from repro.h2 import ErrorCode, StreamState
from repro.h2.errors import H2StreamError
from repro.h2.stream import Stream


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
        stream.reset()
        with pytest.raises(H2StreamError):
            stream.receive_data(5, end_stream=False)

    def test_headers_on_closed_stream_rejected(self):
        stream = make_stream()
        stream.reset()
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
        stream.reset()
        assert stream.closed
