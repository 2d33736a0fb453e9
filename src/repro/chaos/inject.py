"""The fault injector: arms a FaultSchedule against one world.

One :class:`FaultInjector` serves one shard.  It is armed after the
world (and the crawler's resolver) exist but before the crawl starts,
and does three things:

* schedules an **activation** callback per fault at ``fault.at`` on
  the world's event loop -- the same simulated clock every other
  event uses, so fault timing is byte-identical across ``--jobs``;
* installs the **passive machinery** each fault kind needs (network
  taps, transport inspectors, a latency-model wrapper, a resolver
  wrapper) -- all window-gated, so a fault only acts between ``at``
  and ``at + duration``;
* attributes every connection it tears down to the fault that killed
  it, recording the **blast radius**: distinct hostnames, served
  requests, and client endpoints that were riding the connection.

It keeps no connection state of its own: crashes, storms and blast
attribution read each server's live connections
(:attr:`~repro.h2.server.H2Server.live`), and a storm refuses through
:meth:`~repro.h2.server.ServerConnection.refuse` like the capacity
limit does.  The injector subscribes to no server.

The empty schedule arms nothing at all: no taps, no wrappers and no
RNG construction.  A chaos run with no faults must be byte-identical
to a plain crawl; the digest row ``chaos-empty-schedule`` pins that
through its ``same_as`` pair with ``crawl-observed``.

Randomized faults (``rate < 1``) draw from per-fault generators
derived from ``(run seed, chaos domain, shard, fault index, fault
seed)``, so adding a fault to a schedule never shifts the draws of an
existing one, and the crawler's own decision RNG is never touched.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.audit.reasons import ReasonCode
from repro.chaos.report import FaultTally
from repro.chaos.schedule import ChaosError, FaultSchedule, FaultSpec
from repro.deployment.middlebox import BuggyMiddlebox, _ConnectionInspector
from repro.dnssim.records import DnsAnswer, normalize_name
from repro.h2.server import H2Server, ServerConnection
from repro.netsim.latency import LinkSpec
from repro.netsim.network import Host, Service
from repro.netsim.transport import Transport
from repro.telemetry import NULL_TELEMETRY, Telemetry

_TAP_KINDS = {"packet_loss", "packet_corrupt", "tls_fail",
              "middlebox_teardown"}


class FaultInjector:
    """Arms one schedule against one world (one shard)."""

    def __init__(
        self,
        world,
        schedule: FaultSchedule,
        seed: int,
        resolver=None,
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> None:
        self.world = world
        self.schedule = schedule
        self.network = world.network
        self.loop = world.network.loop
        self.resolver = resolver
        self.telemetry = telemetry
        self.audit = telemetry.audit
        self._seed = int(seed)
        self.tallies: List[FaultTally] = [
            FaultTally(name=fault.name, kind=fault.kind)
            for fault in schedule.faults
        ]
        self._rngs: List[Optional[np.random.Generator]] = [None] * len(
            schedule.faults
        )
        #: The server on each host, for the tap to find the owner of
        #: a tapped flow (built when a tap is installed).
        self._server_on: Dict[Host, H2Server] = {}
        #: Listeners pulled by edge_crash / quic_blackhole, per fault
        #: index, awaiting restoration.
        self._suspended: Dict[int, List[Tuple[Service, bool]]] = {}
        self._middlebox: Optional[BuggyMiddlebox] = None
        self._armed = False

    # -- arming ------------------------------------------------------------

    def arm(self) -> None:
        """Install everything the schedule needs.  Idempotent is not
        required; arming twice is a bug."""
        if self._armed:
            raise ChaosError("injector already armed")
        self._armed = True
        if self.schedule.empty:
            return
        faults = self.schedule.faults
        kinds = {fault.kind for fault in faults}
        for index, fault in enumerate(faults):
            self._rngs[index] = np.random.default_rng(
                np.random.SeedSequence(
                    entropy=self._seed,
                    spawn_key=(int(index), int(fault.seed)),
                )
            )
        if kinds & {"dns_servfail", "dns_timeout", "dns_stale"}:
            if self.resolver is None:
                raise ChaosError(
                    "schedule contains DNS faults but the injector has "
                    "no resolver to wrap"
                )
            self._wrap_resolver()
        if "latency_spike" in kinds:
            self._wrap_latency()
        if kinds & _TAP_KINDS:
            self._server_on = {
                server.host: server for _, server in self.world.servers()
            }
            if kinds & {"middlebox_teardown"}:
                self._middlebox = BuggyMiddlebox(
                    self.network, protected_clients=set(),
                    telemetry=self.telemetry,
                )
            self.network.add_tap(self._tap)
        for index, fault in enumerate(faults):
            self.loop.schedule_at(
                fault.at,
                lambda index=index, fault=fault: self._activate(index, fault),
            )
            until = fault.until
            if fault.kind in ("edge_crash", "quic_blackhole") \
                    and until != float("inf"):
                self.loop.schedule_at(
                    until,
                    lambda index=index, fault=fault:
                        self._restore(index, fault),
                )

    # -- fault bookkeeping -------------------------------------------------

    def _matches(self, pattern: str, name: str) -> bool:
        return not pattern or fnmatchcase(name, pattern)

    def _budget_ok(self, index: int) -> bool:
        fault = self.schedule.faults[index]
        return fault.count == 0 or self.tallies[index].events < fault.count

    def _note_event(self, index: int) -> None:
        self.tallies[index].events += 1

    def _record(self, reason: ReasonCode, decision: str, index: int,
                **attrs) -> None:
        if self.audit.enabled:
            self.audit.record(
                "fault", reason, decision=decision,
                fault=self.tallies[index].name,
                fault_kind=self.tallies[index].kind, **attrs,
            )

    def _matching_servers(self, pattern: str) -> List[H2Server]:
        return [
            server for _, server in self.world.servers()
            if self._matches(pattern, server.host.name)
        ]

    # -- blast attribution -------------------------------------------------

    def _account_loss(self, index: int, transport: Transport,
                      connection: Optional[ServerConnection]) -> None:
        """Attribute one torn-down connection (``connection`` is its
        server side, None when no TLS server accepted it) to fault
        ``index``.

        Connections that never finished their TLS handshake carried
        nothing, so they count toward ``immature_lost`` (and the
        fault's event count) but stay out of the blast-radius
        denominator -- the radius measures what was *riding* lost
        connections, per the paper's coalescing concern."""
        tally = self.tallies[index]
        hostnames: set = set()
        requests = 0
        sni = ""
        if connection is not None:
            sni = connection.sni
            hostnames = set(connection.request_log)
            if not hostnames and sni:
                hostnames = {sni}
            requests = len(connection.request_log)
        if not hostnames:
            tally.immature_lost += 1
            return
        tally.connections_lost += 1
        client = transport.remote_address
        if client:
            tally.clients.add(str(client))
        coalesced = len(hostnames) > 1
        if coalesced:
            tally.coalesced_lost += 1
        tally.hostnames_affected += len(hostnames)
        tally.requests_affected += requests
        self._record(
            ReasonCode.CONN_LOST_COALESCED if coalesced
            else ReasonCode.FAULT_INJECTED,
            "conn-lost", index, hostname=sni,
            hostnames=len(hostnames), requests=requests,
        )

    # -- activation / restoration -----------------------------------------

    def _activate(self, index: int, fault: FaultSpec) -> None:
        self.tallies[index].fired += 1
        self._record(ReasonCode.FAULT_INJECTED, "activate", index)
        if fault.kind == "edge_crash":
            self._crash_edges(index, fault)
        elif fault.kind == "goaway_storm":
            self._goaway_storm(index, fault)
        elif fault.kind == "quic_blackhole":
            self._blackhole_quic(index, fault)
        elif fault.kind in ("cert_rotation", "cert_expiry"):
            self._swap_certificates(index, fault)

    def _restore(self, index: int, fault: FaultSpec) -> None:
        for service, datagram in self._suspended.pop(index, ()):  # noqa: B020
            self.network.resume_service(service, datagram=datagram)
        self._record(ReasonCode.FAULT_INJECTED, "restore", index)

    def _crash_edges(self, index: int, fault: FaultSpec) -> None:
        suspended = self._suspended.setdefault(index, [])
        for server in self._matching_servers(fault.target):
            services = self.network.services_owned_by(server)
            for service, datagram in services:
                self.network.suspend_service(service, datagram=datagram)
                suspended.append((service, datagram))
            if services:
                self._note_event(index)
            for transport, connection in list(server.live.items()):
                if transport.closed:
                    continue
                self._note_event(index)
                self._account_loss(index, transport, connection)
                transport.abort()

    def _goaway_storm(self, index: int, fault: FaultSpec) -> None:
        """Every matching edge sends GOAWAY ENHANCE_YOUR_CALM on all
        its live h2 connections -- the overload refusal, but applied
        to established traffic (a rolling restart in the wild)."""
        for server in self._matching_servers(fault.target):
            for transport, connection in list(server.live.items()):
                if transport.closed or connection.conn is None:
                    continue
                self._note_event(index)
                self._account_loss(index, transport, connection)
                connection.refuse()

    def _blackhole_quic(self, index: int, fault: FaultSpec) -> None:
        suspended = self._suspended.setdefault(index, [])
        for server in self._matching_servers(fault.target):
            for service, datagram in self.network.services_owned_by(server):
                if not datagram:
                    continue
                self.network.suspend_service(service, datagram=True)
                suspended.append((service, True))
                self._note_event(index)

    def _swap_certificates(self, index: int, fault: FaultSpec) -> None:
        """Re-issue the leaf of every chain a matching server presents.

        ``cert_rotation`` issues a fresh, valid leaf (new serial) --
        benign for full handshakes, and a probe that resumption paths
        survive a rotation.  ``cert_expiry`` issues a leaf that is
        *already expired* (valid signature, ``not_after`` in the
        past), so every subsequent full handshake fails validation.
        """
        now = self.loop.now()
        # Leaf issuer names are normalized to lowercase by the PKI;
        # the world's issuer directory keeps display case.
        issuers = {
            name.lower(): ca for name, ca in self.world.issuers.items()
        }
        for server in self._matching_servers(fault.target):
            config = server.config
            chains = []
            changed = False
            for chain in config.chains:
                leaf = chain[0] if chain else None
                authority = (
                    issuers.get(leaf.issuer.lower())
                    if leaf is not None else None
                )
                if authority is None:
                    chains.append(chain)
                    continue
                if fault.kind == "cert_expiry":
                    fresh = authority.issue(
                        leaf.subject, tuple(leaf.san),
                        now=max(0.0, now - 2.0), lifetime_ms=1.0,
                    )
                else:
                    fresh = authority.issue(
                        leaf.subject, tuple(leaf.san), now=now,
                    )
                chains.append([fresh] + list(chain[1:]))
                changed = True
                self._note_event(index)
            if changed:
                config.replace_chains(chains)
                self._record(
                    ReasonCode.FAULT_INJECTED,
                    "cert-expiry" if fault.kind == "cert_expiry"
                    else "cert-rotation",
                    index, hostname=server.host.name,
                )

    # -- passive machinery -------------------------------------------------

    def _wrap_latency(self) -> None:
        model = self.network.latency
        original_link = model.link
        spikes = [
            (index, fault)
            for index, fault in enumerate(self.schedule.faults)
            if fault.kind == "latency_spike"
        ]

        def chaos_link(region_a: str, region_b: str) -> LinkSpec:
            spec = original_link(region_a, region_b)
            now = self.loop.now()
            extra = 0.0
            for _, fault in spikes:
                if fault.active_at(now) and (
                    not fault.target
                    or fault.target in (region_a, region_b)
                ):
                    extra += fault.magnitude_ms
            if not extra:
                return spec
            return LinkSpec(
                rtt_ms=spec.rtt_ms + extra,
                jitter_ms=spec.jitter_ms,
                bandwidth_bpms=spec.bandwidth_bpms,
            )

        model.link = chaos_link

    def _wrap_resolver(self) -> None:
        resolver = self.resolver
        original = resolver.resolve
        dns_faults = [
            (index, fault)
            for index, fault in enumerate(self.schedule.faults)
            if fault.kind in ("dns_servfail", "dns_timeout", "dns_stale")
        ]

        def resolve(name, callback, on_error=None):
            now = self.loop.now()
            lookup = normalize_name(name)
            for index, fault in dns_faults:
                if not fault.active_at(now):
                    continue
                if not self._matches(fault.target, lookup):
                    continue
                if not self._budget_ok(index):
                    continue
                if fault.rate < 1.0 \
                        and not self._rngs[index].random() < fault.rate:
                    continue
                if fault.kind == "dns_stale":
                    stale = resolver.stale_answer(lookup)
                    if stale is None:
                        continue  # nothing expired to serve
                    self._note_event(index)
                    self._record(ReasonCode.STALE_DNS_SERVED, "dns-stale",
                                 index, hostname=lookup)
                    self.loop.schedule(0.0, lambda: callback(stale))
                    return
                if fault.kind == "dns_servfail":
                    self._note_event(index)
                    self._record(ReasonCode.FAULT_INJECTED, "dns-servfail",
                                 index, hostname=lookup)
                    answer = DnsAnswer(
                        name=lookup, addresses=[], ttl=0.0,
                        query_time_ms=fault.magnitude_ms,
                    )
                    self.loop.schedule(
                        fault.magnitude_ms, lambda: callback(answer)
                    )
                    return
                # dns_timeout: the query disappears for magnitude_ms,
                # then proceeds normally (retransmission recovery).
                self._note_event(index)
                self._record(ReasonCode.FAULT_INJECTED, "dns-timeout",
                             index, hostname=lookup)
                self.loop.schedule(
                    fault.magnitude_ms,
                    lambda: original(name, callback, on_error),
                )
                return
            original(name, callback, on_error)

        resolver.resolve = resolve

    # -- the network tap ----------------------------------------------------

    def _tap(
        self,
        client: Host,
        server_ip: str,
        port: int,
        client_end: Transport,
        server_end: Transport,
    ) -> None:
        now = self.loop.now()
        server_host = self.network.host_for_address(server_ip)
        server_name = server_host.name if server_host else server_ip
        # The flow's server-side connection, once a TLS server accepts
        # it, is in its server's ``live``.
        server = self._server_on.get(server_host)
        live = {} if server is None else server.live
        for index, fault in enumerate(self.schedule.faults):
            kind = fault.kind
            if kind == "tls_fail":
                if (fault.active_at(now)
                        and self._matches(fault.target, server_name)
                        and self._budget_ok(index)
                        and self._rngs[index].random() < fault.rate):
                    self._install_handshake_killer(index, client_end)
            elif kind == "middlebox_teardown":
                if (fault.active_at(now)
                        and self._matches(fault.target, client.name)
                        and self._budget_ok(index)
                        and (fault.rate >= 1.0
                             or self._rngs[index].random() < fault.rate)):
                    self._install_middlebox(index, fault, server_end, live)
            elif kind in ("packet_loss", "packet_corrupt"):
                self._install_packet_sampler(index, fault, server_end,
                                             server_name, live)

    def _install_handshake_killer(self, index: int,
                                  client_end: Transport) -> None:
        """Abort the connection on the client's first flight (the
        ClientHello): a mid-path TLS interference fault."""
        prior = client_end.outbound_inspector
        state = {"killed": False}

        def inspect(data: bytes) -> bool:
            if prior is not None and not prior(data):
                return False
            if not state["killed"]:
                state["killed"] = True
                self._note_event(index)
                self._record(ReasonCode.FAULT_INJECTED, "tls-fail", index)
                return False
            return True

        client_end.outbound_inspector = inspect

    def _install_middlebox(
        self, index: int, fault: FaultSpec, server_end: Transport,
        live: Dict[Transport, ServerConnection],
    ) -> None:
        """Put the §6.7 buggy middlebox on this flow for the fault's
        window: reassembles TLS records, scans h2 frames, and tears
        the connection down on any unknown frame type (ORIGIN)."""
        middlebox = self._middlebox
        middlebox.stats.connections_inspected += 1
        inspector = _ConnectionInspector(middlebox)
        prior = server_end.outbound_inspector

        def inspect(data: bytes) -> bool:
            if prior is not None and not prior(data):
                return False
            if not fault.active_at(self.loop.now()):
                return True
            ok = inspector.inspect(data)
            if not ok:
                self._note_event(index)
                self._account_loss(index, server_end, live.get(server_end))
            return ok

        server_end.outbound_inspector = inspect

    def _install_packet_sampler(self, index: int, fault: FaultSpec,
                                server_end: Transport, server_name: str,
                                live: Dict[Transport, ServerConnection],
                                ) -> None:
        """Window-gated per-chunk loss/corruption on the server's
        outbound direction (where the response bytes are); either one
        is unrecoverable at this layer, so the transport aborts."""
        if not self._matches(fault.target, server_name):
            return
        prior = server_end.outbound_inspector

        def inspect(data: bytes) -> bool:
            if prior is not None and not prior(data):
                return False
            if not fault.active_at(self.loop.now()):
                return True
            if not self._budget_ok(index):
                return True
            if self._rngs[index].random() < fault.rate:
                self._note_event(index)
                self._account_loss(index, server_end, live.get(server_end))
                return False
            return True

        server_end.outbound_inspector = inspect

    # -- results -----------------------------------------------------------

    @property
    def middlebox_stats(self):
        return self._middlebox.stats if self._middlebox else None
