"""In-memory duplex transports (simulated TCP connections).

A :class:`Transport` is one endpoint of an established connection.  Data
sent on one endpoint is delivered to the peer's ``on_data`` callback
after the link's one-way propagation delay plus serialization delay.
Delivery is strictly in-order per direction: a small message sent after
a large one cannot overtake it, which mirrors TCP byte-stream semantics
and matters for HTTP/2 frame ordering.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.netsim.events import EventLoop
from repro.netsim.latency import LatencyModel


class TransportClosed(Exception):
    """Raised when sending on a closed transport."""


class Transport:
    """One endpoint of a simulated, connected byte stream."""

    def __init__(
        self,
        loop: EventLoop,
        latency: LatencyModel,
        local_region: str,
        remote_region: str,
        local_address: str,
        remote_address: str,
    ) -> None:
        self._loop = loop
        self._latency = latency
        self.local_region = local_region
        self.remote_region = remote_region
        self.local_address = local_address
        self.remote_address = remote_address
        self.peer: Optional["Transport"] = None
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self.closed = False
        #: Set when the connection died to a mid-path RST (:meth:`abort`)
        #: rather than an orderly close.  Writes racing an RST vanish on
        #: the wire instead of raising -- endpoints that have not yet
        #: observed the teardown may still be mid-callback.
        self.aborted = False
        #: On-path interposer (middlebox model): called with each chunk
        #: this endpoint sends; returning False aborts the connection
        #: instead of delivering -- a mid-path RST.
        self.outbound_inspector: Optional[Callable[[bytes], bool]] = None
        # Earliest time the next in-flight chunk may arrive at the peer,
        # enforcing in-order delivery under serialization delay.
        self._next_arrival = 0.0

    @staticmethod
    def pair(
        loop: EventLoop,
        latency: LatencyModel,
        client_region: str,
        server_region: str,
        client_address: str,
        server_address: str,
    ) -> tuple:
        """Create a connected (client_endpoint, server_endpoint) pair."""
        client = Transport(
            loop, latency, client_region, server_region,
            client_address, server_address,
        )
        server = Transport(
            loop, latency, server_region, client_region,
            server_address, client_address,
        )
        client.peer = server
        server.peer = client
        return client, server

    def send(self, data: bytes) -> None:
        """Queue ``data`` for in-order delivery to the peer."""
        if self.closed:
            if self.aborted:
                return  # write racing a mid-path RST: dropped, not an error
            raise TransportClosed(
                f"send on closed transport to {self.remote_address}"
            )
        if not data:
            return
        peer = self.peer
        if peer is None:
            raise TransportClosed("transport has no peer")
        if self.outbound_inspector is not None:
            if not self.outbound_inspector(data):
                self.abort()
                return
        now = self._loop.now()
        shared_done = self._latency.ingress_completion(
            self.remote_region, now, len(data)
        )
        if shared_done is not None:
            # Receiver's inbound link is a shared queue: the payload
            # clears the queue, then propagates.
            arrival = shared_done + self._latency.one_way(
                self.local_region, self.remote_region
            )
        else:
            arrival = now + self._latency.transfer_delay(
                self.local_region, self.remote_region, len(data)
            )
        # In-order delivery: never arrive before a previously sent chunk.
        arrival = max(arrival, self._next_arrival)
        self._next_arrival = arrival

        def deliver() -> None:
            if peer.closed:
                return
            if peer.on_data is not None:
                peer.on_data(data)

        self._loop.schedule_at(arrival, deliver)

    def close(self, notify_peer: bool = True) -> None:
        """Close this endpoint; optionally deliver a FIN to the peer.

        The peer's ``on_close`` fires after one propagation delay, like a
        FIN/RST arriving over the wire.  Closing an already-closed
        transport is a no-op.
        """
        if self.closed:
            return
        self.closed = True
        if self.on_close is not None:
            self.on_close()
        peer = self.peer
        self._release()
        if notify_peer and peer is not None and not peer.closed:
            # The FIN travels in sequence order: it must not overtake
            # data already in flight (e.g. a TLS alert sent just before
            # closing).
            arrival = max(
                self._loop.now()
                + self._latency.one_way(self.local_region,
                                        self.remote_region),
                self._next_arrival,
            )

            def deliver_fin() -> None:
                if not peer.closed:
                    peer.closed = True
                    if peer.on_close is not None:
                        peer.on_close()
                    peer._release()

            self._loop.schedule_at(arrival, deliver_fin)

    def abort(self) -> None:
        """Close both endpoints immediately (RST without propagation).

        Used by the non-compliant middlebox model, which tears down the
        connection from the middle of the path.
        """
        for endpoint in (self, self.peer):
            if endpoint is not None and not endpoint.closed:
                endpoint.aborted = True
                endpoint.closed = True
                if endpoint.on_close is not None:
                    endpoint.on_close()
                endpoint._release()

    def _release(self) -> None:
        """Drop this closed endpoint's callbacks -- the last one has
        run: a closed endpoint is never delivered data and never
        closes again -- and, once both ends are closed, the link
        between them.  What the callbacks hold (the channel and
        session above) then frees by reference counting, not by
        waiting for the cyclic collector."""
        self.on_data = self.on_close = self.outbound_inspector = None
        peer = self.peer
        if peer is not None and peer.closed:
            peer.peer = self.peer = None

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (
            f"Transport({self.local_address}->{self.remote_address}, {state})"
        )
