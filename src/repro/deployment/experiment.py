"""Sample selection, group assignment, and the one ORIGIN deployment
step, :func:`deploy_origin`, for the §5 sample and the fleet (§5.1).

The deployment third party defaults to ``cdnjs.cloudflare.com`` -- the
synthetic analogue of the domain "used by ~50% of the top 1M websites"
that motivated the real deployment.  The control group's padding domain
has exactly the same byte length, so both treatment groups' certificate
modifications are byte-identical in size (Figure 6).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.dataset.generator import DatasetConfig, SiteRecord
from repro.dataset.profiles import POPULAR_PROVIDER_BY_HOSTNAME
from repro.dataset.world import HostedSite, SyntheticWorld
from repro.dnssim.records import RecordType
from repro.tlspki.certificate import Certificate


class Group(enum.Enum):
    EXPERIMENT = "experiment"
    CONTROL = "control"


#: The third-party domain the deployment coalesces.
DEFAULT_THIRD_PARTY = "cdnjs.cloudflare.com"
#: Equal-byte-length domain used by nobody (Figure 6's integrity trick).
DEFAULT_CONTROL_DOMAIN = "00njs.cloudflare.com"


def deployment_world_config(site_count: int = 300, seed: int = 2022):
    """A :class:`~repro.dataset.generator.DatasetConfig` tuned for the
    §5 experiment at laptop scale.

    The real sample drew the 5000 highest third-party-volume domains
    from ~75K CDN-hosted sites; at small N the same selection would be
    nearly empty, so the CDN's hosting share and the third party's
    usage rate are boosted to yield a usable sample while keeping
    per-page structure identical.
    """
    return DatasetConfig(
        site_count=site_count,
        seed=seed,
        popular_usage_overrides={DEFAULT_THIRD_PARTY: 0.60},
        provider_site_share_overrides={"Cloudflare": 0.45},
        # Library CDNs are overwhelmingly loaded via plain <script>
        # tags; only a small share uses crossorigin/fetch() (the §5.3
        # residual that capped coalescing at ~64%).
        popular_anonymous_rate=0.05,
    )


def deploy_origin(world: SyntheticWorld, rows: Iterable[tuple]) -> int:
    """Figure 6's reissue and §5.3's origin sets, for each row
    ``(hostname, snis, names)``: resolve ``hostname`` in ``world`` to a
    leaf -- a site root's served certificate, a popular hostname's
    chain at its provider -- renew it (now) for the ``names`` it lacks,
    serve the renewed chain in its place (and as the site's
    certificate), and advertise ``names`` on connections whose SNI is
    in ``snis`` once ``send_origin_frames`` is on.  Leaves with an empty
    SAN (legacy CN matching: never coalescable) or an unknown issuer
    are skipped with their rows.  Returns the number reissued.
    """
    # ``Certificate.issuer`` is normalized (lowercased); the world's
    # issuer registry keys on display names.
    issuers = {
        name.lower(): authority
        for name, authority in world.issuers.items()
    }
    sites = {hosted.record.root_hostname: hosted for hosted in world.sites}
    # Every row is resolved before any reissue: a renewed popular leaf
    # covers its provider's other popular names, and would answer for
    # their SNIs from then on.
    resolved = []
    for hostname, snis, names in rows:
        hosted = sites.get(hostname)
        if hosted is None:
            config = world.provider_servers[
                POPULAR_PROVIDER_BY_HOSTNAME[hostname]].config
            leaf = config.chain_for_sni(hostname)[0]
        else:
            config, leaf = hosted.server.config, hosted.certificate
        resolved.append((hosted, config, leaf, snis, names))
    now = world.network.loop.now()
    reissued = 0
    for hosted, config, leaf, snis, names in resolved:
        issuer = issuers.get(leaf.issuer)
        if not leaf.san or issuer is None:
            continue
        missing = tuple(name for name in names if not leaf.covers(name))
        if missing:
            renewed = issuer.reissue(leaf, added_san=missing, now=now)
            config.swap_chain(leaf, issuer.chain_for(renewed))
            if hosted is not None:
                hosted.certificate = renewed
            reissued += 1
        origin_set = tuple(f"https://{name}" for name in names)
        for sni in snis:
            config.origin_sets[sni] = origin_set
    return reissued


def fleet_origin_plan(records: Iterable[SiteRecord]) -> List[tuple]:
    """Best-case fleet-wide ORIGIN deployment, as :func:`deploy_origin`
    rows.

    :class:`DeploymentExperiment` enrolls a small sample behind one
    provider -- right for measuring a marginal rollout, far too small
    to move population-scale edge load.  The traffic what-if sweep
    wants the paper's *upper bound* instead: every provider edge
    advertises the popular hostnames it co-hosts in ORIGIN frames, and
    every certificate it serves -- the popular hostnames' own certs
    first, then each provider-hosted site's of ``records`` -- is
    reissued to cover them.  Any client connection to such an edge can
    then coalesce the co-hosted third parties (and the third parties
    each other).  Being names, the plan deploys in any world built from
    ``records``.
    """
    popular: Dict[str, List[str]] = {}
    for hostname, provider in sorted(POPULAR_PROVIDER_BY_HOSTNAME.items()):
        popular.setdefault(provider, []).append(hostname)
    rows: List[tuple] = [
        (hostname, (hostname,), popular[provider])
        for provider in sorted(popular)
        for hostname, owner in POPULAR_PROVIDER_BY_HOSTNAME.items()
        if owner == provider
    ]
    rows.extend(
        (record.root_hostname, record.own_hostnames(),
         popular[record.provider])
        for record in records
        if not record.self_hosted and record.provider in popular
    )
    return rows


@dataclass
class SampleSite:
    """One site enrolled in the deployment."""

    hosted: HostedSite
    group: Group
    original_certificate: Certificate
    reissued_certificate: Optional[Certificate] = None

    @property
    def domain(self) -> str:
        return self.hosted.record.entry.domain

    @property
    def root_hostname(self) -> str:
        return self.hosted.record.root_hostname


class DeploymentExperiment:
    """Builds and manages the §5 experiment on a synthetic world."""

    def __init__(
        self,
        world: SyntheticWorld,
        provider: str = "Cloudflare",
        third_party: str = DEFAULT_THIRD_PARTY,
        control_domain: str = DEFAULT_CONTROL_DOMAIN,
        sample_size: int = 5000,
        subpage_only_rate: float = 0.22,
        seed: int = 31,
    ) -> None:
        if len(third_party) != len(control_domain):
            raise ValueError(
                "control domain must match the third party's byte length "
                f"({len(third_party)} vs {len(control_domain)})"
            )
        self.world = world
        self.provider = provider
        self.third_party = third_party
        self.control_domain = control_domain
        self.rng = np.random.default_rng(seed)
        self.sample: List[SampleSite] = []
        self.removed_subpage_only = 0
        #: The §5.2 dedicated address, once deployed.
        self._dedicated_ip: Optional[str] = None
        self._select_sample(sample_size, subpage_only_rate)

    # -- selection ----------------------------------------------------------

    def _uses_third_party(self, hosted: HostedSite) -> bool:
        return any(
            resource.hostname == self.third_party
            for resource in hosted.record.page.resources
        )

    def _select_sample(self, size: int, subpage_only_rate: float) -> None:
        candidates = [
            hosted
            for hosted in self.world.sites
            if hosted.record.provider == self.provider
            and hosted.record.accessible
            and self._uses_third_party(hosted)
            # Legacy no-SAN certificates cannot take byte-equal SAN
            # additions (reissuing modernizes them); the CDN's managed
            # certificates all carry SANs.
            and hosted.certificate.san_count > 0
        ]
        # Rank by request volume to the third party (the paper took the
        # 5000 domains with the most third-party requests).
        candidates.sort(
            key=lambda hosted: sum(
                1 for r in hosted.record.page.resources
                if r.hostname == self.third_party
            ),
            reverse=True,
        )
        candidates = candidates[:size]
        # Remove sites whose root page cannot trigger the request --
        # the paper dropped 22% that only referenced the third party
        # from subpages.
        kept: List[HostedSite] = []
        for hosted in candidates:
            if self.rng.random() < subpage_only_rate:
                self.removed_subpage_only += 1
            else:
                kept.append(hosted)
        for hosted in kept:
            group = (
                Group.EXPERIMENT if self.rng.random() < 0.5 else
                Group.CONTROL
            )
            self.sample.append(
                SampleSite(
                    hosted=hosted,
                    group=group,
                    original_certificate=hosted.certificate,
                )
            )

    def sites_in(self, group: Group) -> List[SampleSite]:
        return [site for site in self.sample if site.group is group]

    def group_of_domain(self, domain_or_referer: str) -> Optional[Group]:
        for site in self.sample:
            if site.domain in domain_or_referer:
                return site.group
        return None

    # -- certificate reissuance (Figure 6) ---------------------------------

    def reissue_certificates(self) -> int:
        """Renew every sample certificate with its group's added SAN,
        and write the same name into the origin set its hostnames'
        connections advertise once ORIGIN frames are on
        (:func:`deploy_origin`).

        Returns the number of certificates reissued.  The CDN server's
        chain index picks up the new certificates immediately.
        """
        reissued = deploy_origin(self.world, [
            (site.root_hostname, site.hosted.record.own_hostnames(),
             (self._added_name(site),))
            for site in self.sample
        ])
        for site in self.sample:
            site.reissued_certificate = site.hosted.certificate
        return reissued

    def _added_name(self, site: SampleSite) -> str:
        """The name a site's group gains: in its certificate, and in
        the origin set advertised on its connections."""
        return (
            self.third_party if site.group is Group.EXPERIMENT
            else self.control_domain
        )

    def certificate_size_deltas(self) -> Dict[Group, List[int]]:
        """Per-group growth in certificate bytes after reissue."""
        deltas: Dict[Group, List[int]] = {
            Group.EXPERIMENT: [], Group.CONTROL: [],
        }
        for site in self.sample:
            if site.reissued_certificate is None:
                continue
            deltas[site.group].append(
                site.reissued_certificate.size_bytes
                - site.original_certificate.size_bytes
            )
        return deltas

    # -- deployment switches -------------------------------------------------

    @property
    def cdn_server(self):
        return self.world.provider_servers[self.provider]

    def enable_origin_frames(self) -> None:
        """§5.3: the CDN advertises the per-SNI origin sets written at
        reissue -- experiment sites the third party, control sites the
        (unused) control domain, keeping frame sizes identical across
        groups."""
        self.cdn_server.config.send_origin_frames = True

    def disable_origin_frames(self) -> None:
        self.cdn_server.config.send_origin_frames = False

    def deploy_ip_coalescing(self) -> str:
        """§5.2: one new, dedicated address serves every sample domain
        and the third party; DNS answers collapse to that address.

        Returns the dedicated IP.
        """
        server = self.cdn_server
        ip = self.world.allocator.allocate(1)[0]
        self.world.network.add_address(server.host, ip)
        self.world.asdb.register(
            f"{ip}/32",
            self.world.asdb.asn_of(server.host.addresses[0]),
            self.provider,
        )
        server.listen(ip, 443)
        server.listen_plain(ip, 80)
        for site in self.sample:
            record = site.hosted.record
            zone = self.world.dns_authority.zone_for(record.entry.domain)
            for hostname in record.own_hostnames():
                zone.remove(hostname, RecordType.A)
                zone.add_a(hostname, [ip])
        third_zone = self.world.dns_authority.zone_for(self.third_party)
        third_zone.remove(self.third_party, RecordType.A)
        third_zone.add_a(self.third_party, [ip])
        self._dedicated_ip = ip
        return ip

    def undo_ip_coalescing(self) -> None:
        """Restore the third party's standard traffic engineering.

        Sample-domain DNS is left on the dedicated address (harmless);
        the third party reverts to the provider pool, restoring SLAs
        as in the paper's ORIGIN phase.
        """
        server = self.cdn_server
        pool = [a for a in server.host.addresses
                if a != self._dedicated_ip]
        third_zone = self.world.dns_authority.zone_for(self.third_party)
        third_zone.remove(self.third_party, RecordType.A)
        third_zone.add_a(self.third_party, pool[:3])
