"""Materialize generated sites into a runnable simulated internet.

:func:`build_world` turns :class:`~repro.dataset.generator.SiteRecord`
plans into hosts, listening servers, DNS zones, signed certificates,
and an AS database -- everything the crawler's browser engine touches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataset import profiles
from repro.dataset.generator import DatasetConfig, PageGenerator, SiteRecord
from repro.dnssim import AuthoritativeServer, CachingResolver, Zone
from repro.h2.server import H2Server, ServerConfig
from repro.netsim import (
    AddressAllocator,
    EventLoop,
    Host,
    LatencyModel,
    LinkSpec,
    Network,
)
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.tlspki import CertificateAuthority, IssuancePolicy, TrustStore
from repro.tlspki.ca import name_seed
from repro.tlspki.certificate import Certificate
from repro.web.asdb import AsDatabase

#: Region names.
CLIENT_REGION = "client-isp"
CDN_REGION = "cdn-edge"
TAIL_REGION = "tail-hosting"

#: Edge-group name of every server that is not part of a CDN fleet
#: (one per self-hosted site); keeps per-edge breakdowns bounded
#: however many sites the world has.
SELF_HOSTED = "self-hosted"


def _default_latency() -> LatencyModel:
    model = LatencyModel(
        default=LinkSpec(rtt_ms=40.0, bandwidth_bpms=2500.0)
    )
    # CDN edges sit close to clients; tail hosting is far.
    model.set_link(CLIENT_REGION, CDN_REGION,
                   LinkSpec(rtt_ms=24.0, bandwidth_bpms=2500.0))
    model.set_link(CLIENT_REGION, TAIL_REGION,
                   LinkSpec(rtt_ms=110.0, bandwidth_bpms=2000.0))
    return model


@dataclass
class HostedSite:
    """Where one site ended up in the world."""

    record: SiteRecord
    certificate: Certificate
    server: H2Server


class SyntheticWorld:
    """The full simulated internet for one dataset configuration."""

    def __init__(self, config: DatasetConfig) -> None:
        self.config = config
        self.rng = np.random.default_rng(config.seed + 1)
        self.network = Network(
            loop=EventLoop(), latency=_default_latency()
        )
        self.allocator = AddressAllocator()
        self.asdb = AsDatabase()
        self.dns_authority = AuthoritativeServer()
        self.root_ca = CertificateAuthority(
            "Synthetic Web Root CA", rng=np.random.default_rng(config.seed)
        )
        self.trust_store = TrustStore([self.root_ca])
        self.issuers: Dict[str, CertificateAuthority] = {}
        self.provider_servers: Dict[str, H2Server] = {}
        self.tail_cdn_servers: Dict[int, H2Server] = {}
        self.client_host = self.network.add_host(
            Host("crawler-client", CLIENT_REGION,
                 self.allocator.allocate(1))
        )
        self.sites: List[HostedSite] = []
        #: (authority, path) -> body size; consulted by every server.
        self.content_registry: Dict[Tuple[str, str], int] = {}
        # All parallel downloads contend on the client's access link.
        self.network.latency.enable_shared_ingress(CLIENT_REGION, 2800.0)

    def handler(self, authority: str, path: str, headers):
        """Shared request handler: bodies sized from the registry."""
        size = self.content_registry.get((authority, path), 2_000)
        return 200, [("content-type", "application/octet-stream")], \
            b"x" * size

    def register_page_content(self, record: SiteRecord) -> None:
        page = record.page
        self.content_registry[(page.hostname, page.root_path)] = (
            page.root_size_bytes
        )
        for resource in page.resources:
            self.content_registry[(resource.hostname, resource.path)] = (
                resource.size_bytes
            )

    # -- PKI ----------------------------------------------------------------

    @property
    def authorities(self) -> List[CertificateAuthority]:
        return [self.root_ca] + list(self.issuers.values())

    def issuer(self, name: str) -> CertificateAuthority:
        authority = self.issuers.get(name)
        if authority is None:
            authority = CertificateAuthority(
                name,
                rng=np.random.default_rng(
                    (self.config.seed + name_seed(name)) % (2**32)
                ),
                policy=IssuancePolicy(max_san_names=10_000),
                parent=self.root_ca,
            )
            self.issuers[name] = authority
        return authority

    # -- resolver / engine plumbing ------------------------------------------

    def make_resolver(
        self, median_latency_ms: float = 20.0,
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> CachingResolver:
        return CachingResolver(
            self.network.loop,
            self.dns_authority,
            rng=self.rng,
            median_latency_ms=median_latency_ms,
            telemetry=telemetry,
        )

    # -- convenience --------------------------------------------------------

    def servers(self) -> Iterator[Tuple[str, H2Server]]:
        """Every :class:`H2Server` of the world exactly once, with its
        edge-group name: provider fleets (``provider:<name>``), tail
        CDNs (``tailcdn:<asn>``), then the self-hosted sites' own
        origins (all :data:`SELF_HOSTED`), each kind in construction
        order.  Provider-hosted sites share their provider's server."""
        for name, server in self.provider_servers.items():
            yield f"provider:{name}", server
        for asn, server in self.tail_cdn_servers.items():
            yield f"tailcdn:{asn}", server
        for hosted in self.sites:
            if hosted.record.self_hosted:
                yield SELF_HOSTED, hosted.server


def _provider_server(
    world: SyntheticWorld, profile: profiles.ProviderProfile
) -> H2Server:
    """Get or create the (single) edge server fleet for a provider."""
    server = world.provider_servers.get(profile.name)
    if server is not None:
        return server
    ips = world.allocator.allocate(profile.ip_pool_size)
    host = world.network.add_host(
        Host(f"edge-{profile.asn}", CDN_REGION, ips)
    )
    for ip in ips:
        world.asdb.register(f"{ip}/32", profile.asn, profile.name)
    config = ServerConfig(
        send_origin_frames=False,
        think_time_ms=float(world.rng.uniform(40.0, 140.0)),
        handler=world.handler,
        supports_h3=profile.supports_h3,
    )
    server = H2Server(world.network, host, config)
    server.listen_all(443)
    server.listen_plain_all(80)
    if profile.supports_h3:
        server.listen_quic_all(443)
    world.provider_servers[profile.name] = server
    return server


def _tail_cdn_server(world: SyntheticWorld, asn: int, org: str) -> H2Server:
    server = world.tail_cdn_servers.get(asn)
    if server is not None:
        return server
    ips = world.allocator.allocate(3)
    host = world.network.add_host(Host(f"tailcdn-{asn}", TAIL_REGION, ips))
    for ip in ips:
        world.asdb.register(f"{ip}/32", asn, org)
    config = ServerConfig(
        send_origin_frames=False,
        think_time_ms=float(world.rng.uniform(60.0, 220.0)),
        handler=world.handler,
    )
    server = H2Server(world.network, host, config)
    server.listen_all(443)
    server.listen_plain_all(80)
    world.tail_cdn_servers[asn] = server
    return server


def _zone_for_domain(world: SyntheticWorld, domain: str) -> Zone:
    zone = world.dns_authority.zone_for(domain)
    if zone is not None and zone.origin == domain:
        return zone
    return world.dns_authority.add_zone(Zone(domain))


def _install_popular_hosts(world: SyntheticWorld) -> None:
    """Stand up the Table 7/9 hostnames on their providers."""
    ttl = 300_000.0
    for popular in profiles.POPULAR_THIRD_PARTIES:
        profile = profiles.provider_by_name(popular.provider)
        server = _provider_server(world, profile)
        pool = server.host.addresses
        count = min(profile.dns_answer_size + 1, len(pool))
        picked = list(
            world.rng.choice(len(pool), size=count, replace=False)
        )
        ips = [pool[i] for i in picked]

        issuer = world.issuer(profile.issuer)
        certificate = issuer.issue(popular.hostname, (popular.hostname,))
        server.config.chains.append(issuer.chain_for(certificate))
        server.config.serves.append(popular.hostname)

        domain = ".".join(popular.hostname.split(".")[-2:])
        zone = _zone_for_domain(world, domain)
        zone.add_a(popular.hostname, ips, ttl=ttl)
        if profile.supports_h3:
            # RFC 9460 service discovery: big providers publish HTTPS
            # records so h3-capable clients skip the Alt-Svc round.
            zone.add_https(popular.hostname, alpn=("h3", "h2"), ttl=ttl)


def _install_tail_third_parties(
    world: SyntheticWorld, generator: PageGenerator
) -> None:
    for tail in generator.tail_third_parties:
        server = _tail_cdn_server(world, tail.asn, tail.org)
        issuer = world.issuer("Let's Encrypt (R3)")
        certificate = issuer.issue(tail.hostname, (tail.hostname,))
        server.config.chains.append(issuer.chain_for(certificate))
        server.config.serves.append(tail.hostname)
        if world.rng.random() < 0.15:
            server.config.h1_only_hosts = frozenset(
                server.config.h1_only_hosts | {tail.hostname}
            )
        domain = ".".join(tail.hostname.split(".")[-2:])
        zone = _zone_for_domain(world, domain)
        zone.add_a(tail.hostname, server.host.addresses[:1], ttl=300_000.0)


def _install_site(world: SyntheticWorld, record: SiteRecord) -> HostedSite:
    issuer = world.issuer(record.issuer)
    certificate = issuer.issue(
        record.root_hostname,
        record.cert_san,
        include_subject_in_san=bool(record.cert_san),
    )
    chain = issuer.chain_for(certificate)
    # Shards the site certificate does not cover still need to be
    # servable -- in the wild they carry their own certificates; that
    # separateness is exactly what blocks coalescing (§2.2).
    extra_chains = [
        issuer.chain_for(issuer.issue(shard, (shard,)))
        for shard in record.shards
        if not certificate.covers(shard)
    ]
    if not certificate.covers(record.entry.domain):
        extra_chains.append(
            issuer.chain_for(
                issuer.issue(record.entry.domain, (record.entry.domain,))
            )
        )

    if record.self_hosted:
        ip = world.allocator.allocate(1)
        host = world.network.add_host(
            Host(f"origin-{record.entry.domain}", TAIL_REGION, ip)
        )
        world.asdb.register(f"{ip[0]}/32", record.tail_asn, record.tail_org)
        config = ServerConfig(
            chains=[chain] + extra_chains,
            serves=list(record.own_hostnames()),
            send_origin_frames=False,
            alpn_protocols=(
                ("http/1.1",) if record.h1_only else ("h2", "http/1.1")
            ),
            think_time_ms=float(world.rng.uniform(120.0, 380.0)),
            handler=world.handler,
        )
        server = H2Server(world.network, host, config)
        server.listen_all(443)
        server.listen_plain_all(80)
        root_ips = list(ip)
        shard_ips = {shard: list(ip) for shard in record.shards}
    else:
        profile = profiles.provider_by_name(record.provider)
        server = _provider_server(world, profile)
        server.config.chains.append(chain)
        server.config.chains.extend(extra_chains)
        server.config.serves.extend(record.own_hostnames())
        if record.h1_only:
            server.config.h1_only_hosts = frozenset(
                server.config.h1_only_hosts | set(record.own_hostnames())
            )
        pool = server.host.addresses
        answer = min(profile.dns_answer_size, len(pool))
        picked = world.rng.choice(len(pool), size=answer, replace=False)
        root_ips = [pool[i] for i in picked]
        shard_ips = {}
        for shard in record.shards:
            if world.rng.random() < 0.5:
                shard_ips[shard] = list(root_ips)
            else:
                picked = world.rng.choice(
                    len(pool), size=answer, replace=False
                )
                shard_ips[shard] = [pool[i] for i in picked]

    zone = _zone_for_domain(world, record.entry.domain)
    zone.add_a(record.root_hostname, root_ips)
    zone.add_a(record.entry.domain, root_ips)
    for shard, ips in shard_ips.items():
        zone.add_a(shard, ips)

    world.register_page_content(record)
    hosted = HostedSite(
        record=record,
        certificate=certificate,
        server=server,
    )
    world.sites.append(hosted)
    return hosted


def build_world(
    config: Optional[DatasetConfig] = None,
    records: Optional[Sequence[SiteRecord]] = None,
) -> SyntheticWorld:
    """Generate (unless ``records`` is given) and materialize a world."""
    config = config or DatasetConfig()
    world = SyntheticWorld(config)
    generator = PageGenerator(config)
    if records is None:
        records = generator.generate_all()
    _install_popular_hosts(world)
    _install_tail_third_parties(world, generator)
    for record in records:
        _install_site(world, record)
    return world
