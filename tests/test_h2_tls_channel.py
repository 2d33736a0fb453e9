"""Unit tests for the simulated TLS record layer."""

import json

import numpy as np
import pytest

from repro.h2.tls_channel import (
    REC_ALERT,
    REC_APPDATA,
    REC_CERT,
    REC_HELLO,
    TlsClientChannel,
    TlsClientConfig,
    TlsServerChannel,
    deserialize_chain,
    pack_record,
    parse_records,
    serialize_chain,
)
from repro.netsim import EventLoop, Host, LatencyModel, LinkSpec, Network
from repro.tlspki import CertificateAuthority, TrustStore


class TestRecordFraming:
    def test_roundtrip(self):
        wire = pack_record(REC_APPDATA, b"payload")
        records, rest = parse_records(wire)
        assert records == [(REC_APPDATA, b"payload")]
        assert rest == b""

    def test_partial_record_buffered(self):
        wire = pack_record(REC_APPDATA, b"payload")
        records, rest = parse_records(wire[:-2])
        assert records == []
        assert rest == wire[:-2]

    def test_multiple_records(self):
        wire = pack_record(REC_HELLO, b"a") + pack_record(REC_CERT, b"bb")
        records, rest = parse_records(wire)
        assert [t for t, _ in records] == [REC_HELLO, REC_CERT]
        assert rest == b""

    def test_empty_payload(self):
        records, _ = parse_records(pack_record(REC_ALERT, b""))
        assert records == [(REC_ALERT, b"")]


class TestChainSerialization:
    def test_roundtrip_preserves_identity(self):
        ca = CertificateAuthority("Ser CA", rng=np.random.default_rng(2))
        leaf = ca.issue("www.example.com", ("cdn.example.com",))
        chain = ca.chain_for(leaf)
        restored = deserialize_chain(serialize_chain(chain))
        assert len(restored) == len(chain)
        for original, copy in zip(chain, restored):
            assert copy.subject == original.subject
            assert copy.san == original.san
            assert copy.signature == original.signature
            assert copy.fingerprint() == original.fingerprint()
        # Signatures still verify after the round trip.
        assert ca.verify(restored[0])

    def test_padded_to_realistic_size(self):
        ca = CertificateAuthority("Pad CA", rng=np.random.default_rng(2))
        leaf = ca.issue("www.example.com", ())
        chain = ca.chain_for(leaf)
        wire = serialize_chain(chain)
        assert len(wire) >= sum(c.size_bytes for c in chain)


class TestHandshakeFlow:
    def make_pair(self, tls13=True, server_alpn=("h2", "http/1.1"),
                  client_alpn=("h2", "http/1.1"), sni="www.example.com",
                  ech=False):
        network = Network(
            loop=EventLoop(),
            latency=LatencyModel(default=LinkSpec(rtt_ms=10.0,
                                                  bandwidth_bpms=1e6)),
        )
        ca = CertificateAuthority("Flow CA", rng=np.random.default_rng(4))
        trust = TrustStore([ca])
        leaf = ca.issue("www.example.com", ())
        chain = ca.chain_for(leaf)
        server_host = network.add_host(Host("s", "us", ["10.0.0.1"]))
        client_host = network.add_host(Host("c", "us", ["10.1.0.1"]))
        #: What the client put on the wire, as an on-path observer
        #: sees it.
        self.wire = []

        def inspect(data):
            self.wire.append(data)
            return True

        def tap(client, server_ip, port, client_end, server_end):
            client_end.outbound_inspector = inspect

        network.add_tap(tap)
        ends = {}
        network.listen(server_host, "10.0.0.1", 443,
                       lambda t: ends.__setitem__("server", t))
        network.connect(client_host, "10.0.0.1", 443,
                        lambda t: ends.__setitem__("client", t))
        network.loop.run_until_idle()
        server = TlsServerChannel(
            ends["server"], lambda s: chain if s == "www.example.com"
            else None,
            supported_alpn=server_alpn,
        )
        config = TlsClientConfig(
            sni=sni, trust_store=trust, authorities=[ca],
            now=network.loop.now, tls13=tls13, ech_enabled=ech,
            alpn=client_alpn,
        )
        client = TlsClientChannel(ends["client"], config)
        return network, client, server

    def test_tls13_establishes_both_ends(self):
        network, client, server = self.make_pair()
        client.start()
        network.loop.run_until_idle()
        assert client.established and server.established
        assert client.negotiated_alpn == "h2"
        assert server.negotiated_alpn == "h2"

    def test_tls12_takes_an_extra_round_trip(self):
        network13, client13, _ = self.make_pair(tls13=True)
        client13.start()
        network13.loop.run_until_idle()
        t13 = network13.loop.now()

        network12, client12, _ = self.make_pair(tls13=False)
        client12.start()
        network12.loop.run_until_idle()
        t12 = network12.loop.now()
        assert t12 > t13

    def test_app_data_flows_after_establishment(self):
        network, client, server = self.make_pair()
        received = []
        server.on_app_data = received.append
        client.on_established = lambda: client.send_app(b"hello h2")
        client.start()
        network.loop.run_until_idle()
        assert received == [b"hello h2"]

    def test_unknown_sni_gets_alert(self):
        network, client, server = self.make_pair(sni="nope.example.org")
        failures = []
        client.on_failed = failures.append
        client.start()
        network.loop.run_until_idle()
        assert failures
        assert "no certificate" in failures[0]
        assert not client.established

    def test_alpn_server_preference(self):
        network, client, server = self.make_pair(
            server_alpn=("http/1.1",),
        )
        client.start()
        network.loop.run_until_idle()
        assert client.negotiated_alpn == "http/1.1"

    def test_no_common_alpn_fails(self):
        network, client, server = self.make_pair(
            server_alpn=("spdy/3",), client_alpn=("h2",),
        )
        failures = []
        client.on_failed = failures.append
        client.start()
        network.loop.run_until_idle()
        assert failures
        assert "ALPN" in failures[0]

    def observed_sni(self):
        """The SNI an on-path observer reads off the client's HELLO."""
        records, _ = parse_records(b"".join(self.wire))
        hello = next(payload for kind, payload in records
                     if kind == REC_HELLO)
        return json.loads(hello)["sni"]

    def test_sni_plaintext_observable_without_ech(self):
        network, client, server = self.make_pair()
        client.start()
        network.loop.run_until_idle()
        assert self.observed_sni() == "www.example.com"

    def test_ech_hides_sni_from_observer(self):
        network, client, server = self.make_pair(ech=True)
        client.start()
        network.loop.run_until_idle()
        # The wire carried no SNI, but the server still selected the
        # right certificate from the (encrypted) inner hello.
        assert self.observed_sni() == ""
        assert server.client_sni == "www.example.com"
        assert client.established

    def test_send_before_establishment_raises(self):
        from repro.h2.tls_channel import TlsChannelError

        _, client, _ = self.make_pair()
        with pytest.raises(TlsChannelError):
            client.send_app(b"too soon")
