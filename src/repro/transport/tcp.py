"""The ``tcp-tls`` dialer: TLS-over-TCP HTTP/2 (with h1 fallback).

Wraps the concrete :mod:`repro.h2` stack behind the dialer interface
the connection pool drives (:mod:`repro.browser.pool`): a ``name`` and
``dial(hostname, ip, tls13=None)``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.h2.client import H2ClientSession
from repro.h2.tls_channel import TlsClientConfig
from repro.netsim.network import Host, Network
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.tlspki.ca import CertificateAuthority
from repro.tlspki.validation import TrustStore

#: The offer a plain-h2 browser sends; adding "h3" to it is how an
#: h3-capable client signals upgrade interest to TCP servers.
DEFAULT_ALPN_OFFER: Tuple[str, ...] = ("h2", "http/1.1")


class TcpTlsDialer:
    """Creates :class:`~repro.h2.client.H2ClientSession` sessions."""

    name = "tcp-tls"

    def __init__(
        self,
        network: Network,
        client_host: Host,
        trust_store: TrustStore,
        authorities: Sequence[CertificateAuthority],
        session_cache: Optional[dict] = None,
        alpn_offer: Tuple[str, ...] = DEFAULT_ALPN_OFFER,
        origin_aware: bool = True,
        telemetry: Telemetry = NULL_TELEMETRY,
        page: str = "",
    ) -> None:
        self.network = network
        self.client_host = client_host
        self.trust_store = trust_store
        self.authorities = authorities
        self.session_cache = session_cache
        self.alpn_offer = tuple(alpn_offer)
        self.origin_aware = origin_aware
        self.telemetry = telemetry
        self.page = page

    def dial(
        self, hostname: str, ip: str, tls13: Optional[bool] = None
    ) -> H2ClientSession:
        """An unconnected session; ``tls13`` overrides the TLS 1.3
        default for this one dial."""
        config = TlsClientConfig(
            sni=hostname,
            trust_store=self.trust_store,
            authorities=self.authorities,
            now=self.network.loop.now,
            tls13=True if tls13 is None else tls13,
            alpn=self.alpn_offer,
            session_cache=self.session_cache,
        )
        return H2ClientSession(
            self.network,
            self.client_host,
            ip,
            config,
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
