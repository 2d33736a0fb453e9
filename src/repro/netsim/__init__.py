"""Discrete-event network simulation substrate.

Every higher layer in :mod:`repro` (DNS, TLS, HTTP/2, browsers, the CDN
deployment) runs over this package.  The simulation is fully
deterministic: the only time source is :class:`SimClock`, all randomness
comes from explicit ``numpy.random.Generator`` instances, and events are
executed in (time, insertion-order) order.

The key abstractions are:

* :class:`SimClock` / :class:`EventLoop` -- simulated time and the event
  queue that advances it.
* :class:`LatencyModel` -- round-trip times between regions, plus
  bandwidth-based serialization delay for large payloads.
* :class:`Network` -- the registry of hosts and listening services, and
  the factory for :class:`Transport` pairs (simulated TCP connections).
* :class:`Host` / :class:`Transport` -- endpoints and in-memory duplex
  byte pipes with simulated propagation delay.
"""

from repro.netsim.clock import SimClock
from repro.netsim.events import EventLoop
from repro.netsim.latency import LatencyModel, LinkSpec
from repro.netsim.addresses import AddressAllocator, is_valid_ipv4
from repro.netsim.transport import Transport, TransportClosed
from repro.netsim.network import Network, Host, Service, ConnectionRefused

__all__ = [
    "SimClock",
    "EventLoop",
    "LatencyModel",
    "LinkSpec",
    "AddressAllocator",
    "is_valid_ipv4",
    "Transport",
    "TransportClosed",
    "Network",
    "Host",
    "Service",
    "ConnectionRefused",
]
