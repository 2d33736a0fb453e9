"""End-to-end tests for the QUIC-flavored transport
(:mod:`repro.transport.quicsim`): 1-RTT handshakes, cross-hostname
session tickets, 0-RTT resumption, and middlebox opacity."""

import numpy as np
import pytest

from repro.audit.reasons import ReasonCode
from repro.browser.pool import PoolStats
from repro.h2 import H2ClientSession, H2Server, ServerConfig, TlsClientConfig
from repro.netsim import EventLoop, Host, LatencyModel, LinkSpec, Network
from repro.telemetry import Telemetry
from repro.tlspki import CertificateAuthority, TrustStore
from repro.transport.quicsim import (
    QuicDialer,
    QuicTicketManager,
    find_ticket,
)

RTT_MS = 20.0


@pytest.fixture
def world():
    """One edge serving two hostnames over both TCP/443 and QUIC/443."""
    latency = LatencyModel(default=LinkSpec(rtt_ms=RTT_MS,
                                            bandwidth_bpms=1e6))
    network = Network(loop=EventLoop(), latency=latency)
    root = CertificateAuthority("Root CA", rng=np.random.default_rng(7))
    issuer = CertificateAuthority("Edge CA", parent=root,
                                  rng=np.random.default_rng(8))
    trust = TrustStore([root])
    authorities = [root, issuer]

    edge = network.add_host(Host("edge", "us-east", ["10.0.0.1"]))
    client = network.add_host(Host("client", "us-east", ["10.8.0.1"]))

    leaf = issuer.issue(
        "www.example.com", ("www.example.com", "static.example.com")
    )
    server = H2Server(network, edge, ServerConfig(
        chains=[issuer.chain_for(leaf)],
        serves=["www.example.com", "static.example.com"],
        supports_h3=True,
    ))
    server.listen("10.0.0.1")
    server.listen_quic("10.0.0.1")

    def make_dialer(**kwargs):
        return QuicDialer(network, client, trust, authorities, **kwargs)

    def make_tcp_session(sni="www.example.com", tls13=True):
        return H2ClientSession(
            network, client, "10.0.0.1",
            TlsClientConfig(
                sni=sni, trust_store=trust, authorities=authorities,
                now=network.loop.now, tls13=tls13,
            ),
        )

    return network, server, make_dialer, make_tcp_session


def run(network):
    network.loop.run_until_idle()


class TestHandshakeEconomics:
    def test_full_handshake_is_one_rtt(self, world):
        network, _, make_dialer, _ = world
        session = make_dialer().dial("www.example.com", "10.0.0.1")
        session.connect()
        run(network)
        assert session.ready
        assert session.negotiated_protocol == "h3"
        # No transport handshake: HAR connect time is zero...
        assert session.tcp_connected_at == session.connect_started_at
        # ...and the combined handshake costs exactly one round trip.
        assert session.connected_at - session.connect_started_at == \
            pytest.approx(RTT_MS, abs=0.1)

    def test_tcp_tls13_costs_two_rtts(self, world):
        network, _, _, make_tcp_session = world
        session = make_tcp_session()
        session.connect()
        run(network)
        assert session.ready
        assert session.connected_at - session.connect_started_at == \
            pytest.approx(2 * RTT_MS, abs=0.1)

    def test_resumption_is_zero_rtt(self, world):
        network, _, make_dialer, _ = world
        dialer = make_dialer()
        first = dialer.dial("www.example.com", "10.0.0.1")
        first.connect()
        run(network)

        start = network.loop.now()
        second = dialer.dial("www.example.com", "10.0.0.1")
        second.connect()
        run(network)
        assert second.ready
        assert second.channel.resumed
        assert not second.channel.cross_host
        # Established on the same simulated instant it started.
        assert second.connected_at == pytest.approx(start, abs=0.1)


class TestSessionTickets:
    def test_full_handshake_populates_ticket_cache(self, world):
        network, _, make_dialer, _ = world
        dialer = make_dialer()
        assert not dialer.has_ticket_for("www.example.com")
        session = dialer.dial("www.example.com", "10.0.0.1")
        session.connect()
        run(network)
        assert len(dialer.ticket_cache) == 1
        entry = dialer.ticket_cache[0]
        assert entry["sni"] == "www.example.com"
        assert entry["chain"][0].covers("www.example.com")
        # The certificate covers the sibling hostname too, so the same
        # ticket is an 0-RTT opportunity there.
        assert dialer.has_ticket_for("static.example.com")
        assert not dialer.has_ticket_for("other.example.org")

    def test_cross_hostname_resumption(self, world):
        network, _, make_dialer, _ = world
        stats = PoolStats()
        dialer = make_dialer(stats=stats)
        first = dialer.dial("www.example.com", "10.0.0.1")
        first.connect()
        run(network)

        second = dialer.dial("static.example.com", "10.0.0.1")
        second.connect()
        run(network)
        # The server accepted the ticket: a rejected one fails the
        # session, which already acted on its 0-RTT authority.
        assert second.ready and second.failed is None
        assert second.channel.resumed
        assert second.channel.cross_host
        assert second.channel.ticket_sni == "www.example.com"
        assert stats.quic == {
            "quic.handshakes_1rtt": 1,
            "quic.handshake_rtts_saved": 3,
            "quic.zero_rtt_resumptions": 1,
            "quic.cross_host_resumptions": 1,
        }

    def test_resumption_audited(self, world):
        network, _, make_dialer, _ = world
        telemetry = Telemetry(clock=network.loop.now, trace=False,
                              audit=True)
        audit = telemetry.audit
        dialer = make_dialer(telemetry=telemetry,
                             page="https://www.example.com/")
        first = dialer.dial("www.example.com", "10.0.0.1")
        first.connect()
        run(network)
        second = dialer.dial("static.example.com", "10.0.0.1")
        second.connect()
        run(network)
        codes = [e.code for e in audit.events if e.kind == "quic"]
        assert codes.count(ReasonCode.QUIC_HANDSHAKE_1RTT) == 1
        assert codes.count(ReasonCode.ZERO_RTT_RESUMED) == 1
        assert codes.count(ReasonCode.CROSS_HOST_TICKET) == 1

    def test_request_end_to_end(self, world):
        network, server, make_dialer, _ = world
        session = make_dialer().dial("www.example.com", "10.0.0.1")
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


class TestTicketManager:
    def test_validate_unknown_ticket(self):
        manager = QuicTicketManager()
        assert not manager.validate("no-such-ticket", "www.example.com")

    def test_validate_rejects_uncovered_hostname(self):
        issuer = CertificateAuthority("CA", rng=np.random.default_rng(1))
        leaf = issuer.issue("www.a.com", ("www.a.com",))
        manager = QuicTicketManager()
        ticket = manager.issue(issuer.chain_for(leaf))
        assert not manager.validate(ticket, "www.b.com")
        assert manager.validate(ticket, "www.a.com")

    def test_find_ticket_prefers_exact_sni(self):
        issuer = CertificateAuthority("CA", rng=np.random.default_rng(2))
        leaf = issuer.issue("www.a.com", ("www.a.com", "cdn.a.com"))
        chain = list(issuer.chain_for(leaf))
        cache = [
            {"ticket": "t-cdn", "sni": "cdn.a.com", "chain": chain},
            {"ticket": "t-www", "sni": "www.a.com", "chain": chain},
        ]
        assert find_ticket(cache, "www.a.com")["ticket"] == "t-www"
        # No exact match: first covering entry wins (deterministic).
        assert find_ticket(cache, "cdn.a.com")["ticket"] == "t-cdn"
        assert find_ticket(cache, "www.b.com") is None
        assert find_ticket(None, "www.a.com") is None


class TestMiddleboxOpacity:
    def test_datagram_flows_bypass_network_taps(self, world):
        network, _, make_dialer, make_tcp_session = world
        taps = []

        def tap(*args):
            taps.append(args)

        network.add_tap(tap)
        try:
            quic = make_dialer().dial("www.example.com", "10.0.0.1")
            quic.connect()
            run(network)
            assert quic.ready
            assert taps == []  # QUIC is opaque to on-path inspectors

            tcp = make_tcp_session()
            tcp.connect()
            run(network)
            assert tcp.ready
            assert len(taps) == 1  # the TCP flow is still interposable
        finally:
            network.remove_tap(tap)
