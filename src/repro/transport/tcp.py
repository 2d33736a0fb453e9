"""The ``tcp-tls`` dialer: TLS-over-TCP HTTP/2 (with h1 fallback).

Wraps the concrete :mod:`repro.h2` stack behind the
:class:`~repro.transport.base.Dialer` interface.  The construction
sequence (TLS config first, per-call TLS 1.3 override, then the
session) is exactly the pre-refactor pool's, so an ``--alpn h2`` crawl
is byte-identical to one from before the session layer existed.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.h2.client import H2ClientSession
from repro.h2.tls_channel import TlsClientConfig
from repro.netsim.network import Host, Network
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.tlspki.ca import CertificateAuthority
from repro.tlspki.validation import TrustStore
from repro.transport.base import Dialer

#: The offer a plain-h2 browser sends; adding "h3" to it is how an
#: h3-capable client signals upgrade interest to TCP servers.
DEFAULT_ALPN_OFFER: Tuple[str, ...] = ("h2", "http/1.1")


class TcpTlsDialer(Dialer):
    """Creates :class:`~repro.h2.client.H2ClientSession` sessions."""

    name = "tcp-tls"
    alpn = "h2"

    def __init__(
        self,
        network: Network,
        client_host: Host,
        trust_store: TrustStore,
        authorities: Sequence[CertificateAuthority],
        tls13: bool = True,
        session_cache: Optional[dict] = None,
        alpn_offer: Tuple[str, ...] = DEFAULT_ALPN_OFFER,
        origin_aware: bool = True,
        port: int = 443,
        telemetry: Telemetry = NULL_TELEMETRY,
        page: str = "",
    ) -> None:
        self.network = network
        self.client_host = client_host
        self.trust_store = trust_store
        self.authorities = authorities
        self.tls13 = tls13
        self.session_cache = session_cache
        self.alpn_offer = tuple(alpn_offer)
        self.origin_aware = origin_aware
        self.port = port
        self.telemetry = telemetry
        self.page = page

    def tls_config(self, sni: str) -> TlsClientConfig:
        return TlsClientConfig(
            sni=sni,
            trust_store=self.trust_store,
            authorities=self.authorities,
            now=self.network.loop.now,
            tls13=self.tls13,
            alpn=self.alpn_offer,
            session_cache=self.session_cache,
        )

    def dial(
        self, hostname: str, ip: str, tls13: Optional[bool] = None
    ) -> H2ClientSession:
        config = self.tls_config(hostname)
        if tls13 is not None:
            config.tls13 = tls13
        return H2ClientSession(
            self.network,
            self.client_host,
            ip,
            config,
            port=self.port,
            origin_aware=self.origin_aware,
            telemetry=self.telemetry,
            page=self.page,
        )

    def plain_protocol(self, transport):
        """Cleartext HTTP/1.1 over an already-connected transport (no
        TLS); the engine's http:// path."""
        from repro.h2.http1 import H1ClientProtocol

        protocol = H1ClientProtocol(transport.send, self.network.loop.now)
        transport.on_data = protocol.on_app_data
        return protocol
