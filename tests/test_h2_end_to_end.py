"""End-to-end tests: H2 client and ORIGIN-frame server over netsim."""

import numpy as np
import pytest

from repro.h2 import H2ClientSession, H2Server, ServerConfig, TlsClientConfig
from repro.netsim import EventLoop, Host, LatencyModel, LinkSpec, Network
from repro.tlspki import CertificateAuthority, TrustStore


@pytest.fixture
def world():
    """A network with one CDN edge serving two hostnames and a client."""
    latency = LatencyModel(default=LinkSpec(rtt_ms=20.0, bandwidth_bpms=1e6))
    network = Network(loop=EventLoop(), latency=latency)
    root = CertificateAuthority("Root CA", rng=np.random.default_rng(7))
    issuer = CertificateAuthority("Edge CA", parent=root,
                                  rng=np.random.default_rng(8))
    trust = TrustStore([root])
    authorities = [root, issuer]

    edge_host = network.add_host(Host("edge", "us-east", ["10.0.0.1"]))
    client_host = network.add_host(Host("client", "us-east", ["10.8.0.1"]))

    leaf = issuer.issue(
        "www.example.com",
        ("www.example.com", "static.example.com", "thirdparty.cdn.com"),
    )
    config = ServerConfig(
        chains=[issuer.chain_for(leaf)],
        serves=["www.example.com", "static.example.com",
                "thirdparty.cdn.com"],
        origin_sets={
            "*": ("https://static.example.com", "https://thirdparty.cdn.com"),
        },
    )
    server = H2Server(network, edge_host, config)
    server.listen("10.0.0.1")

    def make_session(sni="www.example.com", origin_aware=True, tls13=True,
                     alpn=("h2", "http/1.1")):
        tls = TlsClientConfig(
            sni=sni,
            trust_store=trust,
            authorities=authorities,
            now=network.loop.now,
            tls13=tls13,
            alpn=alpn,
        )
        return H2ClientSession(
            network, client_host, "10.0.0.1", tls,
            origin_aware=origin_aware,
        )

    return network, server, make_session, issuer


def run(network):
    network.loop.run_until_idle()


class TestHandshakeAndRequest:
    def test_simple_get(self, world):
        network, server, make_session, _ = world
        session = make_session()
        responses = []
        session.connect(
            on_ready=lambda: session.request(
                "www.example.com", "/", responses.append
            )
        )
        run(network)
        assert len(responses) == 1
        assert responses[0].status == 200
        assert b"served /" in responses[0].body
        assert server.stats.requests == 1
        assert server.stats.tls_handshakes == 1

    def test_certificate_chain_reaches_client(self, world):
        network, _, make_session, _ = world
        session = make_session()
        session.connect()
        run(network)
        assert session.ready
        leaf = session.leaf_certificate
        assert leaf is not None
        assert leaf.covers("www.example.com")
        assert leaf.covers("thirdparty.cdn.com")

    def test_unknown_sni_fails_handshake(self, world):
        network, _, make_session, _ = world
        session = make_session(sni="unknown.example.org")
        failures = []
        session.connect(on_failed=failures.append)
        run(network)
        assert failures
        assert not session.ready

    def test_tls13_is_faster_than_tls12(self, world):
        network, _, make_session, _ = world
        t13 = make_session(tls13=True)
        t13.connect()
        run(network)
        first_done = t13.connected_at

        t12 = make_session(sni="www.example.com", tls13=False)
        start = network.loop.now()
        t12.connect()
        run(network)
        t12_duration = t12.connected_at - start
        assert t12_duration > first_done  # one extra round trip

    def test_multiplexed_requests_on_one_connection(self, world):
        network, server, make_session, _ = world
        session = make_session()
        responses = []

        def go():
            session.request("www.example.com", "/a", responses.append)
            session.request("www.example.com", "/b", responses.append)
            session.request("static.example.com", "/c", responses.append)

        session.connect(on_ready=go)
        run(network)
        assert [r.status for r in responses] == [200, 200, 200]
        assert server.stats.connections == 1


class TestOriginFrameEndToEnd:
    def test_client_receives_origin_set(self, world):
        network, server, make_session, _ = world
        session = make_session()
        received = []
        session.on_origin_received = received.append
        session.connect()
        run(network)
        assert received == [
            ("https://static.example.com", "https://thirdparty.cdn.com")
        ]
        assert session.origin_set_covers("thirdparty.cdn.com")
        assert not session.origin_set_covers("other.com")
        assert server.stats.origin_frames_sent == 1

    def test_origin_unaware_client_ignores_frame(self, world):
        network, _, make_session, _ = world
        session = make_session(origin_aware=False)
        received = []
        session.on_origin_received = received.append
        responses = []
        session.connect(
            on_ready=lambda: session.request(
                "www.example.com", "/", responses.append
            )
        )
        run(network)
        # Fail-open: no origin set, but traffic is unaffected.
        assert received == []
        assert session.origin_set == frozenset()
        assert responses and responses[0].status == 200

    def test_server_with_origin_disabled_sends_none(self, world):
        network, server, make_session, _ = world
        server.config.send_origin_frames = False
        session = make_session()
        received = []
        session.on_origin_received = received.append
        session.connect()
        run(network)
        assert received == []
        assert server.stats.origin_frames_sent == 0

    def test_coalesced_request_for_origin_set_member(self, world):
        """The paper's core mechanism: one connection serves the third
        party because ORIGIN + certificate SAN authorize it."""
        network, server, make_session, _ = world
        session = make_session()
        responses = []
        accepted = []

        def on_event(event, connection):
            if event == "accepted":
                accepted.append(connection)

        server.connection_observers.append(on_event)

        def go():
            session.request("www.example.com", "/", responses.append)
            # Same connection, different authority: SNI != Host, the
            # exact signal the passive pipeline flags (paper §5.2).
            session.request("thirdparty.cdn.com", "/lib.js", responses.append)

        session.connect(on_ready=go)
        run(network)
        assert [r.status for r in responses] == [200, 200]
        assert server.stats.connections == 1
        (connection,) = accepted
        assert "thirdparty.cdn.com" in connection.request_log
        assert connection.sni == "www.example.com"


class TestAlpnMismatch:
    def test_no_common_protocol_fails_with_an_alert(self, world):
        """Every H2Server resolves its ALPN support per SNI; an offer it
        cannot meet must fail the session, not the event loop."""
        network, server, make_session, _ = world
        session = make_session(alpn=("h3",))
        failures = []
        session.connect(on_failed=failures.append)
        run(network)
        assert len(failures) == 1
        assert "no common ALPN protocol" in failures[0]
        assert "supported ['h2', 'http/1.1']" in failures[0]
        assert session.failed == failures[0]
        assert not session.ready
        assert network.loop.run_until_idle() == 0  # the loop drained


class TestMisdirectedRequest:
    AUTHORITY = [
        ("www.example.com", True),            # exact
        ("a.cdn.example", True),              # one label below "*."
        ("a.b.cdn.example", False),           # two labels below
        ("cdn.example", False),               # the wildcard's parent
        ("late.example.org", True),           # appended after a lookup
        ("swapped.example.net", True),        # replaced after a lookup
        ("old.example.net", False),
        ("example.com", False),
    ]

    def test_is_authoritative_for(self):
        config = ServerConfig(serves=["www.example.com", "*.cdn.example",
                                      "old.example.net"])
        assert not config.is_authoritative_for("late.example.org")
        config.serves.append("late.example.org")
        assert config.is_authoritative_for("old.example.net")
        config.serves[2] = "swapped.example.net"
        assert [config.is_authoritative_for(name)
                for name, _ in self.AUTHORITY] == \
            [expected for _, expected in self.AUTHORITY]

    def test_unserved_authority_gets_421(self, world):
        network, server, make_session, _ = world
        session = make_session()
        responses = []
        session.connect(
            on_ready=lambda: session.request(
                "not-on-this-server.com", "/", responses.append
            )
        )
        run(network)
        assert [r.status for r in responses] == [421]
        assert responses[0].authority == "not-on-this-server.com"
        assert server.stats.misdirected == 1

    def test_421_does_not_kill_connection(self, world):
        network, _, make_session, _ = world
        session = make_session()
        responses = []

        def go():
            session.request("not-on-this-server.com", "/",
                            responses.append)
            session.request("www.example.com", "/", responses.append)

        session.connect(on_ready=go)
        run(network)
        assert [r.status for r in responses] == [421, 200]

    @pytest.mark.parametrize("alpn, waits", [
        (("h2",), False),
        (("http/1.1",), True),
    ], ids=["h2", "h1"])
    def test_only_h1_holds_a_421_for_the_think_time(self, world, alpn,
                                                    waits):
        """An h2 421 goes out at once; h1 sends every response, a 421
        included, after the server's think time."""
        network, server, make_session, _ = world
        server.config.think_time_ms = 500.0
        session = make_session(alpn=alpn)
        elapsed = []

        def go():
            sent_at = network.loop.now()
            session.request(
                "not-on-this-server.com", "/",
                lambda response: elapsed.append(
                    (response.status, network.loop.now() - sent_at)
                ),
            )

        session.connect(on_ready=go)
        run(network)
        assert session.negotiated_protocol == alpn[0]
        ((status, took),) = elapsed
        assert status == 421
        assert (took >= 500.0) == waits
        assert took < 600.0


class TestConnectionTiming:
    def test_connect_costs_tcp_plus_tls_rtts(self, world):
        network, _, make_session, _ = world
        session = make_session()
        session.connect()
        run(network)
        # TCP (1 RTT) + TLS 1.3 (1 RTT) = 2 x 20ms, plus serialization.
        assert session.connected_at == pytest.approx(40.0, abs=5.0)


class TestBoundedMemory:
    """A session keeps no response once its callback has returned, so
    what a long-lived, much-reused connection holds does not grow with
    the bytes it has carried."""

    BODY = bytes(1024 * 1024)

    def fetch_sequentially(self, count):
        """Peak bytes allocated while one session fetches ``count``
        1 MB responses one after another, dropping each."""
        from tests.test_h2_connection import traced_allocations

        latency = LatencyModel(
            default=LinkSpec(rtt_ms=2.0, bandwidth_bpms=1e7))
        network = Network(loop=EventLoop(), latency=latency)
        ca = CertificateAuthority("Mem CA", rng=np.random.default_rng(3))
        edge = network.add_host(Host("edge", "us-east", ["10.0.0.1"]))
        client_host = network.add_host(
            Host("client", "us-east", ["10.8.0.1"]))
        cert = ca.issue("big.example.com", ())
        server = H2Server(network, edge, ServerConfig(
            chains=[ca.chain_for(cert)],
            serves=["big.example.com"],
            handler=lambda authority, path, headers: (200, [], self.BODY),
        ))
        server.listen_all()
        session = H2ClientSession(
            network, client_host, "10.0.0.1",
            TlsClientConfig(sni="big.example.com",
                            trust_store=TrustStore([ca]), authorities=[ca],
                            now=network.loop.now),
        )
        sizes = []

        def fetch(response=None):
            if response is not None:
                sizes.append((response.status, len(response.body)))
            if len(sizes) < count:
                session.request("big.example.com", f"/{len(sizes)}", fetch)

        session.connect()
        network.loop.run_until_idle()
        assert session.ready

        def fetch_all():
            fetch()
            network.loop.run_until_idle()

        _, peak = traced_allocations(fetch_all)
        assert sizes == [(200, len(self.BODY))] * count
        assert server.stats.connections == 1
        return peak

    def test_peak_does_not_grow_with_the_number_of_responses(self):
        few, many = self.fetch_sequentially(8), self.fetch_sequentially(32)
        assert abs(many - few) < 1024 * 1024
