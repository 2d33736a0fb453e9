"""Unit tests for transports, hosts, services, and connections."""

import pytest

from repro.netsim import (
    ConnectionRefused,
    EventLoop,
    Host,
    LatencyModel,
    LinkSpec,
    Network,
    Transport,
    TransportClosed,
)


def make_network(rtt=20.0, bandwidth=1e9):
    latency = LatencyModel(default=LinkSpec(rtt_ms=rtt, bandwidth_bpms=bandwidth))
    return Network(loop=EventLoop(), latency=latency)


class TestHost:
    def test_requires_address(self):
        with pytest.raises(ValueError):
            Host("h", "us", [])

    def test_primary_address_is_first(self):
        host = Host("h", "us", ["10.0.0.1", "10.0.0.2"])
        assert host.primary_address == "10.0.0.1"


class TestHostRegistry:
    def test_lookup_by_name_and_address(self):
        net = make_network()
        host = net.add_host(Host("server", "us", ["10.0.0.1"]))
        assert net.host("server") is host
        assert net.host_for_address("10.0.0.1") is host

    def test_duplicate_name_rejected(self):
        net = make_network()
        net.add_host(Host("server", "us", ["10.0.0.1"]))
        with pytest.raises(ValueError):
            net.add_host(Host("server", "us", ["10.0.0.2"]))

    def test_duplicate_address_rejected(self):
        net = make_network()
        net.add_host(Host("a", "us", ["10.0.0.1"]))
        with pytest.raises(ValueError):
            net.add_host(Host("b", "us", ["10.0.0.1"]))

    def test_add_address(self):
        net = make_network()
        host = net.add_host(Host("a", "us", ["10.0.0.1"]))
        net.add_address(host, "10.9.9.9")
        assert net.host_for_address("10.9.9.9") is host


class TestConnect:
    def test_connect_completes_after_one_rtt(self):
        net = make_network(rtt=20.0)
        server = net.add_host(Host("server", "us", ["10.0.0.1"]))
        client = net.add_host(Host("client", "us", ["10.1.0.1"]))
        accepted, connected = [], []
        net.listen(server, "10.0.0.1", 443, accepted.append)
        net.connect(client, "10.0.0.1", 443,
                    lambda t: connected.append(net.loop.now()))
        net.loop.run_until_idle()
        assert connected == [20.0]
        assert len(accepted) == 1

    def test_server_accepts_at_half_rtt(self):
        net = make_network(rtt=20.0)
        server = net.add_host(Host("server", "us", ["10.0.0.1"]))
        client = net.add_host(Host("client", "us", ["10.1.0.1"]))
        accept_times = []
        net.listen(server, "10.0.0.1", 443,
                   lambda t: accept_times.append(net.loop.now()))
        net.connect(client, "10.0.0.1", 443, lambda t: None)
        net.loop.run_until_idle()
        assert accept_times == [10.0]

    def test_refused_when_no_listener(self):
        net = make_network()
        client = net.add_host(Host("client", "us", ["10.1.0.1"]))
        errors = []
        net.connect(client, "10.0.0.9", 443, lambda t: None,
                    on_refused=errors.append)
        net.loop.run_until_idle()
        assert len(errors) == 1
        assert isinstance(errors[0], ConnectionRefused)

    def test_listen_requires_owned_address(self):
        net = make_network()
        host = net.add_host(Host("server", "us", ["10.0.0.1"]))
        with pytest.raises(ValueError):
            net.listen(host, "10.0.0.99", 443, lambda t: None)

    def test_duplicate_listener_rejected(self):
        net = make_network()
        host = net.add_host(Host("server", "us", ["10.0.0.1"]))
        net.listen(host, "10.0.0.1", 443, lambda t: None)
        with pytest.raises(ValueError):
            net.listen(host, "10.0.0.1", 443, lambda t: None)

    def test_connection_counters(self):
        net = make_network()
        server = net.add_host(Host("server", "us", ["10.0.0.1"]))
        client = net.add_host(Host("client", "us", ["10.1.0.1"]))
        accepted = []
        net.listen(server, "10.0.0.1", 443, accepted.append)
        for _ in range(3):
            net.connect(client, "10.0.0.1", 443, lambda t: None)
        net.loop.run_until_idle()
        assert net.connections_opened == 3
        assert len(accepted) == 3


class TestTransportDataFlow:
    def _connected_pair(self, net):
        server = net.add_host(Host("server", "us", ["10.0.0.1"]))
        client = net.add_host(Host("client", "us", ["10.1.0.1"]))
        ends = {}
        net.listen(server, "10.0.0.1", 443,
                   lambda t: ends.__setitem__("server", t))
        net.connect(client, "10.0.0.1", 443,
                    lambda t: ends.__setitem__("client", t))
        net.loop.run_until_idle()
        return ends["client"], ends["server"]

    def test_round_trip_bytes(self):
        net = make_network(rtt=20.0)
        client_end, server_end = self._connected_pair(net)
        received = []
        server_end.on_data = received.append
        client_end.send(b"hello")
        net.loop.run_until_idle()
        assert received == [b"hello"]

    def test_delivery_takes_one_way_delay(self):
        net = make_network(rtt=20.0)
        client_end, server_end = self._connected_pair(net)
        arrival = []
        server_end.on_data = lambda d: arrival.append(net.loop.now())
        start = net.loop.now()
        client_end.send(b"x")
        net.loop.run_until_idle()
        assert arrival == [pytest.approx(start + 10.0)]

    def test_in_order_delivery_despite_serialization(self):
        # A large chunk followed by a small one: the small one must not
        # overtake the large one even though its serialization is faster.
        net = make_network(rtt=20.0, bandwidth=10.0)  # 10 bytes/ms
        client_end, server_end = self._connected_pair(net)
        received = []
        server_end.on_data = received.append
        client_end.send(b"L" * 1000)  # 100ms serialization
        client_end.send(b"s")
        net.loop.run_until_idle()
        assert received == [b"L" * 1000, b"s"]

    def test_every_byte_sent_is_delivered(self):
        net = make_network()
        client_end, server_end = self._connected_pair(net)
        received = []
        server_end.on_data = received.append
        client_end.send(b"123")
        client_end.send(b"45")
        net.loop.run_until_idle()
        assert b"".join(received) == b"12345"

    def test_send_after_close_raises(self):
        net = make_network()
        client_end, _ = self._connected_pair(net)
        client_end.close()
        with pytest.raises(TransportClosed):
            client_end.send(b"x")

    def test_close_notifies_peer_after_delay(self):
        net = make_network(rtt=20.0)
        client_end, server_end = self._connected_pair(net)
        closed_at = []
        server_end.on_close = lambda: closed_at.append(net.loop.now())
        start = net.loop.now()
        client_end.close()
        net.loop.run_until_idle()
        assert closed_at == [start + 10.0]

    def test_abort_closes_both_ends_immediately(self):
        net = make_network()
        client_end, server_end = self._connected_pair(net)
        client_end.abort()
        assert client_end.closed and server_end.closed

    def test_double_close_is_noop(self):
        net = make_network()
        client_end, _ = self._connected_pair(net)
        client_end.close()
        client_end.close()  # must not raise
        net.loop.run_until_idle()

    def test_data_to_closed_peer_is_dropped(self):
        net = make_network(rtt=20.0)
        client_end, server_end = self._connected_pair(net)
        received = []
        server_end.on_data = received.append
        client_end.send(b"in-flight")
        server_end.closed = True  # peer goes away before delivery
        net.loop.run_until_idle()
        assert received == []

    def test_empty_send_is_noop(self):
        net = make_network()
        client_end, server_end = self._connected_pair(net)
        received = []
        server_end.on_data = received.append
        client_end.send(b"")
        net.loop.run_until_idle()
        assert received == []


class TestNetworkTap:
    def test_tap_sees_new_connections(self):
        net = make_network()
        server = net.add_host(Host("server", "us", ["10.0.0.1"]))
        client = net.add_host(Host("client", "us", ["10.1.0.1"]))
        net.listen(server, "10.0.0.1", 443, lambda t: None)
        seen = []
        net.add_tap(lambda host, ip, port, c, s: seen.append((host.name, ip, port)))
        net.connect(client, "10.0.0.1", 443, lambda t: None)
        net.loop.run_until_idle()
        assert seen == [("client", "10.0.0.1", 443)]

    def test_tap_can_be_removed(self):
        net = make_network()
        server = net.add_host(Host("server", "us", ["10.0.0.1"]))
        client = net.add_host(Host("client", "us", ["10.1.0.1"]))
        net.listen(server, "10.0.0.1", 443, lambda t: None)
        seen = []
        tap = lambda host, ip, port, c, s: seen.append(ip)
        net.add_tap(tap)
        net.remove_tap(tap)
        net.connect(client, "10.0.0.1", 443, lambda t: None)
        net.loop.run_until_idle()
        assert seen == []
