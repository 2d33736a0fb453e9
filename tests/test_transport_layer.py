"""Unit tests for the protocol-agnostic session layer
(:mod:`repro.transport`): record framing, capability records, and the
``tcp-tls`` dialer."""

import numpy as np
import pytest

from repro.browser.policy import ConnectionFacts, FirefoxPolicy
from repro.browser.pool import ConnectionPool
from repro.h2.client import H2ClientSession
from repro.netsim import EventLoop, Host, LatencyModel, LinkSpec, Network
from repro.tlspki import CertificateAuthority, TrustStore
from repro.transport.base import DEFAULT_MAX_STREAMS, SessionCapabilities
from repro.transport.framing import (
    REC_APPDATA,
    REC_HELLO,
    pack_record,
    parse_records,
)
from repro.transport.tcp import DEFAULT_ALPN_OFFER, TcpTlsDialer


class TestFraming:
    def test_round_trip(self):
        wire = pack_record(REC_HELLO, b"hello") + \
            pack_record(REC_APPDATA, b"payload")
        records, rest = parse_records(wire)
        assert records == [(REC_HELLO, b"hello"),
                           (REC_APPDATA, b"payload")]
        assert rest == b""

    def test_partial_record_buffered(self):
        wire = pack_record(REC_APPDATA, b"x" * 100)
        records, rest = parse_records(wire[:7])
        assert records == []
        assert rest == wire[:7]
        records, rest = parse_records(rest + wire[7:])
        assert records == [(REC_APPDATA, b"x" * 100)]
        assert rest == b""

    def test_empty_payload(self):
        records, rest = parse_records(pack_record(REC_HELLO, b""))
        assert records == [(REC_HELLO, b"")]
        assert rest == b""

    def test_shared_with_tls_channel(self):
        # The h2 stack and the middlebox must keep speaking the same
        # wire format as the transport package.
        from repro.h2 import tls_channel

        assert tls_channel.pack_record is pack_record
        assert tls_channel.parse_records is parse_records


class TestSessionCapabilities:
    def test_defaults_are_h1_like(self):
        caps = SessionCapabilities()
        assert caps.max_streams == 1
        assert not caps.can_multiplex
        assert not caps.supports_origin_frame

    def test_multiplex_follows_stream_budget(self):
        assert SessionCapabilities(max_streams=2).can_multiplex
        assert not SessionCapabilities(max_streams=1).can_multiplex

    def test_frozen(self):
        with pytest.raises(Exception):
            SessionCapabilities().max_streams = 5


class TestConnectionFactsCapabilities:
    """Policies read a connection's capabilities from the record its
    session declares."""

    def test_session_record_is_what_facts_report(self):
        class Declared:
            capabilities = SessionCapabilities(
                supports_origin_frame=True, max_streams=7
            )

        facts = ConnectionFacts(session=Declared(), sni="www.a.com",
                                connected_ip="10.0.0.1")
        assert facts.capabilities.max_streams == 7
        assert facts.capabilities.supports_origin_frame
        assert facts.can_multiplex

    def test_bare_facts_default_to_tcp_tls(self):
        facts = ConnectionFacts(session=object(), sni="www.a.com",
                                connected_ip="10.0.0.1")
        assert facts.transport == "tcp-tls"


@pytest.fixture
def tls_world():
    latency = LatencyModel(default=LinkSpec(rtt_ms=20.0,
                                            bandwidth_bpms=1e6))
    network = Network(loop=EventLoop(), latency=latency)
    root = CertificateAuthority("Root CA", rng=np.random.default_rng(7))
    issuer = CertificateAuthority("Edge CA", parent=root,
                                  rng=np.random.default_rng(8))
    trust = TrustStore([root])
    edge = network.add_host(Host("edge", "us-east", ["10.0.0.1"]))
    client = network.add_host(Host("client", "us-east", ["10.8.0.1"]))

    from repro.h2 import H2Server, ServerConfig

    leaf = issuer.issue("www.example.com",
                        ("www.example.com", "static.example.com"))
    server = H2Server(network, edge, ServerConfig(
        chains=[issuer.chain_for(leaf)],
        serves=["www.example.com", "static.example.com"],
    ))
    server.listen("10.0.0.1")
    return network, client, trust, [root, issuer], server


class TestTcpTlsDialer:
    def test_default_offer_is_pre_h3(self):
        assert DEFAULT_ALPN_OFFER == ("h2", "http/1.1")

    def test_dial_produces_h2_session(self, tls_world):
        network, client, trust, authorities, server = tls_world
        dialer = TcpTlsDialer(network, client, trust, authorities)
        session = dialer.dial("www.example.com", "10.0.0.1")
        assert isinstance(session, H2ClientSession)
        session.connect()
        network.loop.run_until_idle()
        assert session.ready
        assert session.negotiated_protocol == "h2"
        caps = session.capabilities
        assert caps.max_streams == DEFAULT_MAX_STREAMS
        assert caps.can_multiplex
        assert caps.supports_origin_frame

    def test_pool_stamps_the_dialer_name(self, tls_world):
        network, client, trust, authorities, _ = tls_world
        pool = ConnectionPool(
            FirefoxPolicy(),
            dialer=TcpTlsDialer(network, client, trust, authorities),
        )
        facts = pool.open_connection(
            "www.example.com", "10.0.0.1", ["10.0.0.1"],
            on_ready=lambda facts: None, on_failed=lambda reason: None,
        )
        assert facts.transport == "tcp-tls"

    def test_per_dial_tls13_override(self, tls_world):
        network, client, trust, authorities, _ = tls_world
        dialer = TcpTlsDialer(network, client, trust, authorities)
        t13 = dialer.dial("www.example.com", "10.0.0.1")
        t12 = dialer.dial("www.example.com", "10.0.0.1", tls13=False)
        after = dialer.dial("www.example.com", "10.0.0.1")
        assert t13.tls_config.tls13 is True
        assert t12.tls_config.tls13 is False
        # The override is per dial: the next default dial is TLS 1.3.
        assert after.tls_config.tls13 is True
