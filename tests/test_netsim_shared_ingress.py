"""Shared client-ingress bottleneck tests."""

import pytest

from repro.netsim import (
    EventLoop,
    Host,
    LatencyModel,
    LinkSpec,
    Network,
)


def make_network(shared_bandwidth=None):
    latency = LatencyModel(
        default=LinkSpec(rtt_ms=20.0, bandwidth_bpms=1e9)
    )
    if shared_bandwidth is not None:
        latency.enable_shared_ingress("client", shared_bandwidth)
    return Network(loop=EventLoop(), latency=latency)


def connected_pair(net, server_name, server_ip):
    server = net.add_host(Host(server_name, "servers", [server_ip]))
    ends = {}
    net.listen(server, server_ip, 443,
               lambda t: ends.__setitem__("server", t))
    net.connect(net.host("client-host"), server_ip, 443,
                lambda t: ends.__setitem__("client", t))
    net.loop.run_until_idle()
    return ends["client"], ends["server"]


class TestSharedIngress:
    def test_invalid_bandwidth_rejected(self):
        latency = LatencyModel()
        with pytest.raises(ValueError):
            latency.enable_shared_ingress("client", 0.0)

    def test_unshared_region_returns_none(self):
        latency = LatencyModel()
        assert latency.ingress_completion("elsewhere", 0.0, 100) is None

    def test_queue_serializes(self):
        latency = LatencyModel()
        latency.enable_shared_ingress("client", 10.0)  # 10 B/ms
        first = latency.ingress_completion("client", 0.0, 100)
        second = latency.ingress_completion("client", 0.0, 100)
        assert first == pytest.approx(10.0)
        assert second == pytest.approx(20.0)  # waited for the first

    def test_queue_drains_when_idle(self):
        latency = LatencyModel()
        latency.enable_shared_ingress("client", 10.0)
        latency.ingress_completion("client", 0.0, 100)  # done at 10
        late = latency.ingress_completion("client", 100.0, 100)
        assert late == pytest.approx(110.0)

    def test_parallel_downloads_contend_on_the_wire(self):
        """Two servers sending to one client share its access link;
        total completion time reflects the sum of the bytes."""
        net = make_network(shared_bandwidth=10.0)  # 10 B/ms ingress
        net.add_host(Host("client-host", "client", ["10.9.0.1"]))
        a_client, a_server = connected_pair(net, "a", "10.0.0.1")
        b_client, b_server = connected_pair(net, "b", "10.0.0.2")

        finished = []
        a_client.on_data = lambda d: finished.append(("a", net.loop.now()))
        b_client.on_data = lambda d: finished.append(("b", net.loop.now()))
        start = net.loop.now()
        a_server.send(b"x" * 1000)  # 100ms of link time
        b_server.send(b"y" * 1000)  # another 100ms, queued behind
        net.loop.run_until_idle()
        times = dict(finished)
        assert times["a"] - start == pytest.approx(110.0)  # ser + one-way
        assert times["b"] - start == pytest.approx(210.0)

    def test_server_side_unaffected(self):
        """Only the shared region queues; uploads to servers do not."""
        net = make_network(shared_bandwidth=10.0)
        net.add_host(Host("client-host", "client", ["10.9.0.1"]))
        a_client, a_server = connected_pair(net, "a", "10.0.0.1")
        got = []
        a_server.on_data = lambda d: got.append(net.loop.now())
        start = net.loop.now()
        a_client.send(b"u" * 1000)
        net.loop.run_until_idle()
        # Upload rides the (effectively infinite) default bandwidth.
        assert got[0] - start == pytest.approx(10.0, abs=0.1)
