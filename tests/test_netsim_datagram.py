"""Tests for the datagram (UDP-style) side of the network simulator:
synchronous flow setup, the separate listener namespace, refusal
timing, and tap bypass."""

import pytest

from repro.netsim import EventLoop, Host, LatencyModel, LinkSpec, Network

RTT_MS = 30.0


@pytest.fixture
def net():
    latency = LatencyModel(default=LinkSpec(rtt_ms=RTT_MS,
                                            bandwidth_bpms=1e6))
    network = Network(loop=EventLoop(), latency=latency)
    server = network.add_host(Host("server", "us-east", ["10.0.0.1"]))
    client = network.add_host(Host("client", "us-east", ["10.8.0.1"]))
    return network, server, client


class TestListen:
    def test_listen_requires_owned_address(self, net):
        network, server, _ = net
        with pytest.raises(ValueError, match="not an address"):
            network.listen_datagram(server, "10.9.9.9", 443,
                                    lambda transport: None)

    def test_duplicate_listener_rejected(self, net):
        network, server, _ = net
        network.listen_datagram(server, "10.0.0.1", 443,
                                lambda transport: None)
        with pytest.raises(ValueError, match="already has a datagram"):
            network.listen_datagram(server, "10.0.0.1", 443,
                                    lambda transport: None)

    def test_namespace_separate_from_stream_listeners(self, net):
        network, server, client = net
        streams, datagrams = [], []
        network.listen(server, "10.0.0.1", 443, streams.append)
        # A QUIC endpoint shares 443 with the TCP one.
        network.listen_datagram(server, "10.0.0.1", 443, datagrams.append)
        network.connect_datagram(client, "10.0.0.1", 443)
        assert len(datagrams) == 1 and streams == []


class TestConnect:
    def test_connect_is_synchronous(self, net):
        network, server, client = net
        accepted = []
        network.listen_datagram(server, "10.0.0.1", 443, accepted.append)
        transport = network.connect_datagram(client, "10.0.0.1", 443)
        # Both ends exist before the loop runs at all: QUIC folds
        # transport setup into its cryptographic handshake.
        assert transport is not None
        assert accepted and accepted[0] is not transport
        assert network.loop.now() == 0.0

    def test_data_still_pays_path_latency(self, net):
        network, server, client = net
        received = []
        arrival = []

        def accept(server_end):
            server_end.on_data = lambda data: (
                received.append(data), arrival.append(network.loop.now())
            )

        network.listen_datagram(server, "10.0.0.1", 443, accept)
        transport = network.connect_datagram(client, "10.0.0.1", 443)
        transport.send(b"initial flight")
        network.loop.run_until_idle()
        assert received == [b"initial flight"]
        assert arrival[0] == pytest.approx(RTT_MS / 2.0, abs=0.1)

    def test_refused_when_nothing_listens(self, net):
        network, _, client = net
        errors = []
        transport = network.connect_datagram(
            client, "10.0.0.1", 443, on_refused=errors.append
        )
        assert transport is None
        assert errors == []  # the ICMP unreachable takes one RTT
        network.loop.run_until_idle()
        assert len(errors) == 1
        assert "no datagram listener" in str(errors[0])
        assert network.loop.now() == pytest.approx(RTT_MS)

    def test_refused_without_handler_raises_when_event_runs(self, net):
        network, _, client = net
        assert network.connect_datagram(client, "10.0.0.1", 443) is None
        with pytest.raises(Exception, match="no datagram listener"):
            network.loop.run_until_idle()

    def test_taps_do_not_apply_to_datagram_flows(self, net):
        network, server, client = net
        taps = []

        def tap(*args):
            taps.append(args)

        network.add_tap(tap)
        try:
            network.listen_datagram(server, "10.0.0.1", 443,
                                    lambda transport: None)
            network.listen(server, "10.0.0.1", 443, lambda transport: None)
            network.connect_datagram(client, "10.0.0.1", 443)
            assert taps == []
            network.connect(client, "10.0.0.1", 443,
                            lambda transport: None)
            assert len(taps) == 1
        finally:
            network.remove_tap(tap)

    def test_counters(self, net):
        network, server, client = net
        accepted = []
        network.listen_datagram(server, "10.0.0.1", 443, accepted.append)
        before = network.connections_opened
        network.connect_datagram(client, "10.0.0.1", 443)
        network.connect_datagram(client, "10.0.0.1", 443)
        assert network.connections_opened == before + 2
        assert len(accepted) == 2
