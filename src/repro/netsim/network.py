"""Host registry, listening services, and connection establishment.

A :class:`Network` owns the event loop and latency model, registers
:class:`Host` objects with IPv4 addresses and regions, and lets services
listen on ``(ip, port)``.  :meth:`Network.connect` models the TCP
three-way handshake: the caller's ``on_connect`` callback fires one full
RTT after the SYN, matching the 1-RTT connect cost browsers observe.

An optional *tap* can be installed on the network; the middlebox model
(paper §6.7) uses it to interpose on new connections for selected
clients.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.netsim.events import EventLoop
from repro.netsim.latency import LatencyModel
from repro.netsim.transport import Transport


class ConnectionRefused(Exception):
    """No service is listening at the requested (ip, port)."""


class Host:
    """A machine on the simulated network."""

    def __init__(self, name: str, region: str, addresses: List[str]) -> None:
        if not addresses:
            raise ValueError(f"host {name!r} needs at least one address")
        self.name = name
        self.region = region
        self.addresses = list(addresses)

    @property
    def primary_address(self) -> str:
        return self.addresses[0]

    def __repr__(self) -> str:
        return f"Host({self.name!r}, {self.region!r}, {self.addresses})"


class Service:
    """A listener bound to (ip, port) on some host.

    ``acceptor`` is called with the server-side :class:`Transport` for
    each new connection.
    """

    def __init__(
        self,
        host: Host,
        ip: str,
        port: int,
        acceptor: Callable[[Transport], None],
    ) -> None:
        self.host = host
        self.ip = ip
        self.port = port
        self.acceptor = acceptor


#: A tap receives (client_host, server_ip, port, client_transport,
#: server_transport) and may wrap or replace either endpoint's callbacks.
NetworkTap = Callable[[Host, str, int, Transport, Transport], None]


class Network:
    """The simulated internet: hosts, listeners, and connections."""

    def __init__(
        self,
        loop: Optional[EventLoop] = None,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        self.loop = loop if loop is not None else EventLoop()
        self.latency = latency if latency is not None else LatencyModel()
        self._hosts: Dict[str, Host] = {}
        self._by_address: Dict[str, Host] = {}
        self._services: Dict[Tuple[str, int], Service] = {}
        self._datagram_services: Dict[Tuple[str, int], Service] = {}
        self._taps: List[NetworkTap] = []
        self.connections_opened = 0

    # -- host management --------------------------------------------------

    def add_host(self, host: Host) -> Host:
        """Register a host; all its addresses must be unused."""
        if host.name in self._hosts:
            raise ValueError(f"duplicate host name {host.name!r}")
        for address in host.addresses:
            if address in self._by_address:
                raise ValueError(f"address {address} already in use")
        self._hosts[host.name] = host
        for address in host.addresses:
            self._by_address[address] = host
        return host

    def host(self, name: str) -> Host:
        return self._hosts[name]

    def host_for_address(self, address: str) -> Optional[Host]:
        return self._by_address.get(address)

    def add_address(self, host: Host, address: str) -> None:
        """Attach an extra address to an existing host (addressing agility,
        as used by the IP-coalescing deployment in paper §5.2)."""
        if address in self._by_address:
            raise ValueError(f"address {address} already in use")
        host.addresses.append(address)
        self._by_address[address] = host

    # -- services ----------------------------------------------------------

    def listen(
        self,
        host: Host,
        ip: str,
        port: int,
        acceptor: Callable[[Transport], None],
    ) -> Service:
        """Bind ``acceptor`` to (ip, port); the ip must belong to ``host``."""
        if ip not in host.addresses:
            raise ValueError(f"{ip} is not an address of {host.name}")
        key = (ip, port)
        if key in self._services:
            raise ValueError(f"{ip}:{port} already has a listener")
        service = Service(host, ip, port, acceptor)
        self._services[key] = service
        return service

    def listen_datagram(
        self,
        host: Host,
        ip: str,
        port: int,
        acceptor: Callable[[Transport], None],
    ) -> Service:
        """Bind a datagram (UDP-style) listener to (ip, port).

        Datagram listeners live in a separate namespace from stream
        listeners, so a QUIC endpoint can share 443 with a TCP one.
        """
        if ip not in host.addresses:
            raise ValueError(f"{ip} is not an address of {host.name}")
        key = (ip, port)
        if key in self._datagram_services:
            raise ValueError(f"{ip}:{port} already has a datagram listener")
        service = Service(host, ip, port, acceptor)
        self._datagram_services[key] = service
        return service

    def services_owned_by(self, owner: object) -> List[Tuple[Service, bool]]:
        """All ``(service, is_datagram)`` listeners whose acceptor is a
        bound method of ``owner`` (e.g. an H2Server), in registration
        order.  Used by fault injection to find every port an edge
        answers on."""
        found: List[Tuple[Service, bool]] = []
        for service in self._services.values():
            if getattr(service.acceptor, "__self__", None) is owner:
                found.append((service, False))
        for service in self._datagram_services.values():
            if getattr(service.acceptor, "__self__", None) is owner:
                found.append((service, True))
        return found

    def suspend_service(self, service: Service, datagram: bool = False) -> None:
        """Remove a listener while keeping the :class:`Service` object
        (and its counters) alive so :meth:`resume_service` can restore
        it.  New connection attempts are refused while suspended."""
        table = self._datagram_services if datagram else self._services
        key = (service.ip, service.port)
        if table.get(key) is not service:
            raise ValueError(
                f"{service.ip}:{service.port} is not bound to this service"
            )
        del table[key]

    def resume_service(self, service: Service, datagram: bool = False) -> None:
        """Re-register a previously suspended listener."""
        table = self._datagram_services if datagram else self._services
        key = (service.ip, service.port)
        if key in table:
            raise ValueError(f"{service.ip}:{service.port} already has a listener")
        table[key] = service

    # -- taps ---------------------------------------------------------------

    def add_tap(self, tap: NetworkTap) -> None:
        """Install an on-path interposer applied to every new connection."""
        self._taps.append(tap)

    def remove_tap(self, tap: NetworkTap) -> None:
        self._taps.remove(tap)

    # -- connections ---------------------------------------------------------

    def connect(
        self,
        client: Host,
        server_ip: str,
        port: int,
        on_connect: Callable[[Transport], None],
        on_refused: Optional[Callable[[Exception], None]] = None,
    ) -> None:
        """Open a TCP connection from ``client`` to ``server_ip:port``.

        ``on_connect`` receives the client-side transport one RTT after
        now (SYN, SYN-ACK).  If nothing is listening, ``on_refused`` is
        called after one RTT instead (RST comes back); without an
        ``on_refused`` handler the error propagates when the event runs.
        """
        service = self._services.get((server_ip, port))
        if service is None:
            rtt = self.latency.rtt(client.region, "unknown-region")
            error = ConnectionRefused(f"nothing listening at {server_ip}:{port}")

            def refuse() -> None:
                if on_refused is not None:
                    on_refused(error)
                else:
                    raise error

            self.loop.schedule(rtt, refuse)
            return

        rtt = self.latency.rtt(client.region, service.host.region)
        client_end, server_end = Transport.pair(
            self.loop,
            self.latency,
            client.region,
            service.host.region,
            client.primary_address,
            server_ip,
        )
        self.connections_opened += 1
        for tap in self._taps:
            tap(client, server_ip, port, client_end, server_end)

        def establish() -> None:
            # The server learns of the connection half an RTT after the
            # SYN; the client's connect completes a full RTT after it.
            service.acceptor(server_end)

        def complete() -> None:
            if client_end.closed:
                # The connection was torn down (server crash, on-path
                # RST) between the server's accept and the client's
                # connect completing: the client sees a refusal, not a
                # transport it could never use.
                error = ConnectionRefused(
                    f"connection reset by {server_ip}:{port}"
                )
                if on_refused is not None:
                    on_refused(error)
                else:
                    raise error
                return
            on_connect(client_end)

        self.loop.schedule(rtt / 2.0, establish)
        self.loop.schedule(rtt, complete)

    def connect_datagram(
        self,
        client: Host,
        server_ip: str,
        port: int,
        on_refused: Optional[Callable[[Exception], None]] = None,
    ) -> Optional[Transport]:
        """Open a datagram flow from ``client`` to ``server_ip:port``.

        Unlike :meth:`connect` there is no handshake: the client-side
        transport is returned synchronously and the first datagram can
        go out immediately (QUIC folds transport setup into its
        cryptographic handshake).  Data still pays the one-way path
        latency per flight.  Network taps do not apply: a QUIC flow is
        encrypted end-to-end from the first packet, so the on-path
        middlebox model has nothing it can parse.

        Returns ``None`` when nothing is listening; ``on_refused`` (if
        given) fires one RTT later, when the ICMP unreachable would
        arrive.
        """
        service = self._datagram_services.get((server_ip, port))
        if service is None:
            rtt = self.latency.rtt(client.region, "unknown-region")
            error = ConnectionRefused(
                f"no datagram listener at {server_ip}:{port}"
            )

            def refuse() -> None:
                if on_refused is not None:
                    on_refused(error)
                else:
                    raise error

            self.loop.schedule(rtt, refuse)
            return None

        client_end, server_end = Transport.pair(
            self.loop,
            self.latency,
            client.region,
            service.host.region,
            client.primary_address,
            server_ip,
        )
        self.connections_opened += 1
        # The server side exists as soon as the flow does; its channel
        # only learns anything when the client's first flight lands.
        service.acceptor(server_end)
        return client_end
