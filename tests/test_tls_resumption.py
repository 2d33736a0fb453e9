"""TLS session resumption: tickets, warm revisits, session clearing."""

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
        # Slow link so the certificate bytes are visible in timings.
        latency=LatencyModel(default=LinkSpec(rtt_ms=20.0,
                                              bandwidth_bpms=50.0)),
    )
    ca = CertificateAuthority("Resume CA", rng=np.random.default_rng(5))
    trust = TrustStore([ca])
    edge = network.add_host(Host("edge", "us", ["10.0.0.1"]))
    client_host = network.add_host(Host("client", "us", ["10.9.0.1"]))
    cert = ca.issue("www.example.com", ("www.example.com",))
    server = H2Server(network, edge, ServerConfig(
        chains=[ca.chain_for(cert)],
        serves=["www.example.com"],
    ))
    server.listen_all()

    cache = {}

    def session():
        tls = TlsClientConfig(
            sni="www.example.com", trust_store=trust, authorities=[ca],
            now=network.loop.now, session_cache=cache,
        )
        return H2ClientSession(network, client_host, "10.0.0.1", tls)

    return network, server, session, cache


def connect(network, client):
    client.connect()
    network.loop.run_until_idle()
    assert client.ready, client.failed


class TestResumption:
    def test_first_connection_receives_a_ticket(self, world):
        network, _, session, cache = world
        client = session()
        connect(network, client)
        assert not client.channel.resumed
        assert "www.example.com" in cache

    def test_second_connection_resumes(self, world):
        network, server, session, cache = world
        accepted = []

        def on_event(event, connection):
            if event == "accepted":
                accepted.append(connection)

        server.connection_observers.append(on_event)
        first = session()
        connect(network, first)
        second = session()
        connect(network, second)
        assert second.channel.resumed
        # The server accepted the ticket on the second connection only.
        assert [c.channel.resumed for c in accepted] == [False, True]
        # The chain was restored from the cache, not re-transmitted.
        assert second.leaf_certificate is not None
        assert second.leaf_certificate.covers("www.example.com")

    def test_resumed_handshake_is_faster(self, world):
        network, _, session, _ = world
        first = session()
        start = network.loop.now()
        connect(network, first)
        full_duration = first.connected_at - start

        second = session()
        start = network.loop.now()
        connect(network, second)
        resumed_duration = second.connected_at - start
        # No certificate bytes on the slow link: visibly faster.
        assert resumed_duration < full_duration

    def test_requests_work_on_resumed_connection(self, world):
        network, _, session, _ = world
        first = session()
        connect(network, first)
        second = session()
        responses = []
        second.connect(
            on_ready=lambda: second.request("www.example.com", "/",
                                            responses.append)
        )
        network.loop.run_until_idle()
        assert responses[0].status == 200
        assert second.channel.resumed

    def test_bogus_ticket_falls_back_to_full_handshake(self, world):
        network, server, session, cache = world
        cache["www.example.com"] = ("ticket-99999999", [])
        client = session()
        connect(network, client)
        assert not client.channel.resumed
        assert client.leaf_certificate is not None  # full chain sent

    def test_resumption_disabled_server_issues_no_tickets(self):
        network = Network(
            loop=EventLoop(),
            latency=LatencyModel(default=LinkSpec(rtt_ms=20.0,
                                                  bandwidth_bpms=1e5)),
        )
        ca = CertificateAuthority("NR CA", rng=np.random.default_rng(5))
        trust = TrustStore([ca])
        edge = network.add_host(Host("edge", "us", ["10.0.0.1"]))
        client_host = network.add_host(Host("client", "us",
                                            ["10.9.0.1"]))
        cert = ca.issue("www.example.com", ())
        server = H2Server(network, edge, ServerConfig(
            chains=[ca.chain_for(cert)],
            serves=["www.example.com"],
            enable_resumption=False,
        ))
        server.listen_all()
        cache = {}
        tls = TlsClientConfig(
            sni="www.example.com", trust_store=trust, authorities=[ca],
            now=network.loop.now, session_cache=cache,
        )
        client = H2ClientSession(network, client_host, "10.0.0.1", tls)
        connect(network, client)
        assert cache == {}

    def test_engine_new_session_clears_tickets(self, world):
        from repro.browser import BrowserContext, BrowserEngine, \
            ChromiumPolicy
        from repro.dnssim import AuthoritativeServer, CachingResolver, \
            Zone

        network, _, _, cache = world
        authority = AuthoritativeServer()
        zone = Zone("example.com")
        zone.add_a("www.example.com", ["10.0.0.1"])
        authority.add_zone(zone)
        cache["www.example.com"] = ("ticket-00000001", [])
        context = BrowserContext(
            network=network,
            client_host=network.host("client"),
            resolver=CachingResolver(network.loop, authority),
            trust_store=TrustStore([]),
            authorities=[],
            policy=ChromiumPolicy(),
            tls_session_cache=cache,
        )
        BrowserEngine(context).new_session()
        assert cache == {}
