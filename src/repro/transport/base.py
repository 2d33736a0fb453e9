"""The capability record the browser keys reuse decisions on.

The browser (pool, policies, engine) never inspects concrete session
classes: a dialer (:class:`~repro.transport.tcp.TcpTlsDialer`,
:class:`~repro.transport.quicsim.QuicDialer`) builds an unconnected
session, and the pool and policies read only what
:class:`SessionCapabilities` records -- whether the session can
multiplex and whether it honours ORIGIN frames.  What else a session
must provide is listed once, in :mod:`repro.browser.pool`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Stream budget advertised by multiplexing sessions (mirrors the h2
#: client's MAX_CONCURRENT_STREAMS without importing it here).
DEFAULT_MAX_STREAMS = 100


@dataclass(frozen=True)
class SessionCapabilities:
    """What a session can do, as far as reuse decisions care.

    ``supports_origin_frame`` gates ORIGIN-set coalescing;
    ``max_streams`` is the concurrent-stream budget (1 for HTTP/1.1).
    """

    supports_origin_frame: bool = False
    max_streams: int = 1

    @property
    def can_multiplex(self) -> bool:
        return self.max_streams > 1
