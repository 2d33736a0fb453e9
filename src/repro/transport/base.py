"""The protocol-agnostic session layer.

The browser (pool, policies, engine) used to be hard-wired to the
concrete TLS-over-TCP HTTP/2 classes; this module defines the seam
that decouples it.  A :class:`Dialer` knows how to create an
unconnected :class:`Session` toward ``(hostname, ip)``; a
:class:`Session` exposes the uniform life cycle the pool drives
(``connect`` / ``when_ready`` / ``request`` / ``close``) plus the
coalescing-relevant facts (certificate coverage, ORIGIN set) the
policies consult; and :class:`SessionCapabilities` is the typed record
the pool keys reuse decisions on, instead of ``isinstance`` checks.

Concrete implementations live in :mod:`repro.transport.tcp` (the
``tcp-tls`` dialer wrapping :mod:`repro.h2`) and
:mod:`repro.transport.quicsim` (the deterministic QUIC-flavored
dialer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, Optional

#: Stream budget advertised by multiplexing sessions (mirrors the h2
#: client's MAX_CONCURRENT_STREAMS without importing it here).
DEFAULT_MAX_STREAMS = 100


@dataclass(frozen=True)
class SessionCapabilities:
    """What a session can do, as far as reuse decisions care.

    ``alpn`` is the negotiated (or expected) application protocol;
    ``resumable_across_hostnames`` marks tickets usable for any
    hostname the certificate covers (QUIC per Sy et al.);
    ``zero_rtt`` marks sessions that can carry requests in the first
    handshake flight; ``supports_origin_frame`` gates ORIGIN-set
    coalescing; ``max_streams`` is the concurrent-stream budget (1 for
    HTTP/1.1).
    """

    alpn: str = "h2"
    resumable_across_hostnames: bool = False
    zero_rtt: bool = False
    supports_origin_frame: bool = False
    max_streams: int = 1

    @property
    def can_multiplex(self) -> bool:
        return self.max_streams > 1


@dataclass(frozen=True)
class Endpoint:
    """Where a session terminates: host, port, and which transport
    family carries it.  Pool entries are indexed by
    ``(endpoint, capabilities)``."""

    hostname: str
    port: int = 443
    transport: str = "tcp-tls"


class Session:
    """One protocol session the pool can hold and the engine can drive.

    Concrete sessions provide, beyond the methods below: ``ready`` /
    ``failed`` / ``closed`` state flags, ``h1_busy``,
    ``negotiated_protocol``, the handshake timestamps
    (``connect_started_at``, ``tcp_connected_at``, ``connected_at``),
    and ``leaf_certificate`` / ``origin_set``.
    """

    capabilities = SessionCapabilities()

    def connect(
        self,
        on_ready: Optional[Callable[[], None]] = None,
        on_failed: Optional[Callable[[str], None]] = None,
    ) -> None:
        raise NotImplementedError

    def when_ready(
        self,
        on_ready: Callable[[], None],
        on_failed: Optional[Callable[[str], None]] = None,
    ) -> None:
        raise NotImplementedError

    def request(self, authority, path, on_response, extra_headers=()):
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    @property
    def can_multiplex(self) -> bool:
        return self.capabilities.can_multiplex

    def certificate_covers(self, hostname: str) -> bool:
        raise NotImplementedError

    def origin_set_covers(self, hostname: str) -> bool:
        raise NotImplementedError

    @property
    def origin_set(self) -> FrozenSet[str]:
        return frozenset()


class Dialer:
    """Creates unconnected sessions for one transport family.

    ``dial`` only constructs the session; the pool registers it and
    then calls :meth:`Session.connect`, so registration order (and
    with it every downstream decision) is identical to the
    pre-refactor flow.
    """

    #: Transport-family name; becomes ``Endpoint.transport``.
    name = "base"
    #: ALPN this dialer is expected to negotiate (for pool indexing
    #: before the handshake completes).
    alpn = "h2"

    def dial(
        self, hostname: str, ip: str, tls13: Optional[bool] = None
    ) -> Session:
        raise NotImplementedError

    def endpoint(self, hostname: str, port: int = 443) -> Endpoint:
        return Endpoint(hostname=hostname, port=port, transport=self.name)
