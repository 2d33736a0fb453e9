"""Edge-side load accounting.

The :class:`EdgeLoadMonitor` subscribes to every TLS server of a world
(:meth:`~repro.dataset.world.SyntheticWorld.servers`) -- connection
events (accept / handshake / overload-GOAWAY / close) and requests,
with the ``SNI != Host`` coalescing signal of §5.2 -- and folds
everything into a streaming :class:`~repro.traffic.aggregate.
TrafficAggregate`: concurrent-connection gauges, handshakes split by
resumption, coalesced-request counters per time bucket (the Figure 8
series at population scale), and per-edge-group breakdowns.

It counts; it keeps no per-request rows.  The sampled request log of
§5.2/§5.3 is :class:`repro.deployment.passive.PassivePipeline`, which
subscribes to the same servers without disturbing this monitor.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.audit.reasons import ReasonCode
from repro.dataset.world import SELF_HOSTED, SyntheticWorld
from repro.h2.server import H2Server
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.traffic.aggregate import TrafficAggregate


def apply_edge_capacity(
    world: SyntheticWorld, capacity: Optional[int]
) -> int:
    """Provision every CDN edge (provider + tail fleets) with a
    concurrent-connection limit; self-hosted origins stay unlimited.
    Returns the number of servers provisioned."""
    if capacity is None:
        return 0
    provisioned = 0
    for name, server in world.servers():
        if name != SELF_HOSTED:
            server.config.max_concurrent_connections = capacity
            provisioned += 1
    return provisioned


class EdgeLoadMonitor:
    """Streams every edge event of a world into an aggregate."""

    def __init__(
        self,
        world: SyntheticWorld,
        aggregate: TrafficAggregate,
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> None:
        self.world = world
        self.aggregate = aggregate
        self.loop = world.network.loop
        self.audit = telemetry.audit
        #: Edge-group name of every server this monitor is hooked to.
        self._edge_of: Dict[H2Server, str] = {}
        #: Live connections across all monitored edges (the fleet
        #: gauge behind per-bucket ``peak_concurrent``).
        self.current_connections = 0
        self.peak_connections = 0
        self._edge_current: Dict[str, int] = {}

    # -- attachment --------------------------------------------------------

    def attach(self) -> int:
        """Subscribe to every TLS server; returns how many."""
        for name, server in self.world.servers():
            self._edge_of[server] = name
            server.connection_observers.append(self._on_connection_event)
            server.request_observers.append(self._on_request)
        return len(self._edge_of)

    def detach(self) -> None:
        for server in self._edge_of:
            server.connection_observers.remove(self._on_connection_event)
            server.request_observers.remove(self._on_request)
        self._edge_of.clear()

    # -- observation -------------------------------------------------------

    def _on_connection_event(self, event: str, connection) -> None:
        name = self._edge_of[connection.server]
        edge = self.aggregate.edge_for(name)
        bucket = self.aggregate.bucket_for(self.loop.now())
        if event == "accepted":
            edge.connections += 1
            bucket.connections += 1
            self.current_connections += 1
            current = self._edge_current.get(name, 0) + 1
            self._edge_current[name] = current
            if current > edge.peak_concurrent:
                edge.peak_concurrent = current
            if self.current_connections > self.peak_connections:
                self.peak_connections = self.current_connections
            if self.current_connections > bucket.peak_concurrent:
                bucket.peak_concurrent = self.current_connections
        elif event == "handshake":
            edge.handshakes += 1
            bucket.handshakes += 1
            if getattr(connection.channel, "resumed", False):
                edge.resumed += 1
                bucket.resumed += 1
        elif event == "overload_goaway":
            edge.goaways += 1
            bucket.goaways += 1
            if self.audit.enabled:
                self.audit.record(
                    "edge", ReasonCode.EDGE_OVERLOAD_GOAWAY,
                    hostname=connection.sni, decision="refused",
                    edge=name,
                )
        elif event == "closed":
            self.current_connections -= 1
            self._edge_current[name] = (
                self._edge_current.get(name, 0) - 1
            )

    def _on_request(
        self, connection, authority, arrival_index, headers
    ) -> None:
        edge = self.aggregate.edge_for(self._edge_of[connection.server])
        bucket = self.aggregate.bucket_for(self.loop.now())
        edge.requests += 1
        bucket.requests += 1
        if connection.sni != authority:
            edge.coalesced_requests += 1
            bucket.coalesced_requests += 1
