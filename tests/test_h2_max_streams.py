"""MAX_CONCURRENT_STREAMS: clients queue requests past the cap."""

import numpy as np
import pytest

from repro.h2 import H2ClientSession, H2Server, ServerConfig, \
    TlsClientConfig
from repro.netsim import EventLoop, Host, LatencyModel, LinkSpec, Network
from repro.tlspki import CertificateAuthority, TrustStore


@pytest.fixture
def world():
    network = Network(
        loop=EventLoop(),
        latency=LatencyModel(default=LinkSpec(rtt_ms=20.0,
                                              bandwidth_bpms=1e5)),
    )
    ca = CertificateAuthority("MS CA", rng=np.random.default_rng(5))
    trust = TrustStore([ca])
    edge = network.add_host(Host("edge", "us", ["10.0.0.1"]))
    client_host = network.add_host(Host("client", "us", ["10.9.0.1"]))
    cert = ca.issue("www.example.com", ())
    server = H2Server(network, edge, ServerConfig(
        chains=[ca.chain_for(cert)],
        serves=["www.example.com"],
        max_concurrent_streams=2,
        think_time_ms=50.0,
    ))
    server.listen_all()
    tls = TlsClientConfig(
        sni="www.example.com", trust_store=trust, authorities=[ca],
        now=network.loop.now,
    )
    client = H2ClientSession(network, client_host, "10.0.0.1", tls)
    return network, server, client


class TestMaxConcurrentStreams:
    def test_all_requests_complete_despite_cap(self, world):
        network, server, client = world
        responses = []

        def go():
            for i in range(6):
                client.request("www.example.com", f"/r{i}",
                               responses.append)

        client.connect(on_ready=go)
        network.loop.run_until_idle()
        assert len(responses) == 6
        assert all(r.status == 200 for r in responses)

    def test_excess_requests_queue(self, world):
        network, server, client = world
        queued_ids = []

        def go():
            # Client learns the cap from the server SETTINGS that
            # arrived with the connection preface exchange.
            for i in range(5):
                queued_ids.append(
                    client.request("www.example.com", f"/r{i}",
                                   lambda r: None)
                )

        # Let the server SETTINGS land before the burst; otherwise
        # the client still believes the default (unlimited) cap.
        client.connect(
            on_ready=lambda: network.loop.schedule(30.0, go)
        )
        network.loop.run_until_idle()
        # Requests beyond the cap returned the queued marker (-1).
        assert queued_ids.count(-1) == 3

    def test_requests_serialize_in_waves(self, world):
        network, server, client = world
        finish_times = []

        def go():
            for i in range(4):
                client.request(
                    "www.example.com", f"/r{i}",
                    lambda r: finish_times.append(r.finished_at),
                )

        client.connect(
            on_ready=lambda: network.loop.schedule(30.0, go)
        )
        network.loop.run_until_idle()
        assert len(finish_times) == 4
        # The second wave (requests 3-4) finishes a think-time later.
        waves = sorted(finish_times)
        assert waves[2] - waves[0] > 40.0


class TestStreamReset:
    """A reset stream finishes its request: before, the session had no
    handler for ``StreamReset``, so the request kept its slot under the
    cap and its callback never fired."""

    @pytest.fixture
    def resetting_server(self, monkeypatch):
        """``/reset`` is answered with RST_STREAM(REFUSED_STREAM)."""
        from repro.h2 import ErrorCode
        from repro.h2.server import ServerConnection

        answer = ServerConnection._handle_request

        def handle(connection, event):
            if dict(event.headers)[":path"] == "/reset":
                connection.conn.send_rst_stream(
                    event.stream_id, ErrorCode.REFUSED_STREAM)
                return
            answer(connection, event)

        monkeypatch.setattr(ServerConnection, "_handle_request", handle)

    def test_reset_of_one_in_flight_stream_completes_it_as_dead(
            self, world, resetting_server):
        from repro.telemetry import Telemetry

        network, server, untraced = world
        client = H2ClientSession(
            network, untraced.client_host, "10.0.0.1",
            untraced.tls_config,
            telemetry=Telemetry(network.loop.now, audit=False),
        )
        responses = {}
        stream_ids = []

        def go():
            # Two in flight fill the cap of 2; the third waits for a slot.
            for path in ("/reset", "/ok", "/queued"):
                stream_ids.append(client.request(
                    "www.example.com", path,
                    lambda r: responses.setdefault(r.path, r)))

        client.connect(
            on_ready=lambda: network.loop.schedule(30.0, go)
        )
        network.loop.run_until_idle()
        assert stream_ids == [1, 3, -1]
        assert {path: r.status for path, r in responses.items()} == {
            "/reset": 0, "/ok": 200, "/queued": 200,
        }
        dead = responses["/reset"]
        assert (dead.stream_id, dead.headers, dead.body) == (1, [], b"")
        assert dead.sent_at == dead.headers_at < dead.finished_at
        # The freed slot went to the queued request well before the
        # other in-flight one finished thinking.
        assert responses["/queued"].sent_at == dead.finished_at
        assert responses["/queued"].sent_at < responses["/ok"].finished_at
        assert not client._pending and not client._stream_queue
        assert not client.closed and client.failed is None
        spans = {s.attrs["path"]: s for s in client.tracer.spans
                 if s.name == "h2.stream"}
        assert all(span.finished for span in spans.values())
        assert spans["/reset"].attrs["status"] == 0
        assert spans["/reset"].end_ms == dead.finished_at
