"""Synthetic site generation.

:class:`PageGenerator` plans every site in the synthetic web: which
provider hosts it, its sharded subdomains, which popular and tail
third parties it embeds, the full subresource dependency graph, and the
certificate SAN contents.  The plans are pure data;
:mod:`repro.dataset.world` materializes them into servers, zones, and
signed certificates.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataset import profiles
from repro.dataset.tranco import TrancoEntry, TrancoList
from repro.web.content import CONTENT_TYPE_SIZES, ContentType
from repro.web.page import FetchMode, Subresource, WebPage

#: Shard subdomain labels, in the order sites adopt them.
SHARD_LABELS = ("static", "img", "cdn", "assets", "media")

#: ASN base for self-hosted tail sites (one AS per site).
TAIL_SITE_ASN_BASE = 65_000_000
#: ASN base for shared tail CDN/third-party providers.
TAIL_CDN_ASN_BASE = 64_512

#: Shards-per-site distribution (0..4 shard subdomains).
SHARD_COUNT_SHARES = (0.25, 0.30, 0.20, 0.15, 0.10)

#: Path suffix per content type (``/text_css.css``); a resource's path
#: is its slot index plus this.
_PATH_SUFFIX = {
    content_type: f"/{content_type.name.lower()}"
                  f".{content_type.value.split('/')[-1][:4]}"
    for content_type in ContentType
}


#: How far from 1 a probability vector may sum (numpy's own bound).
_SUM_TOLERANCE = float(np.sqrt(np.finfo(np.float64).eps))


class WeightedDraw:
    """Index draws from one fixed probability vector.

    ``WeightedDraw(p)(rng)`` returns what ``rng.choice(len(p), p=p)``
    returns and leaves ``rng`` in the same state: numpy's scalar path
    is one ``rng.random()`` right-bisected into the normalised cumsum
    of ``p``, after re-validating ``p`` on every call.  Here ``p`` is
    validated and its CDF built once (DESIGN.md, "Draw contract").
    """

    __slots__ = ("cdf",)

    def __init__(self, p: Sequence[float]) -> None:
        p = np.asarray(p, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("p must be a non-empty 1-d vector")
        if not np.all(p >= 0.0):  # also rejects NaN
            raise ValueError("probabilities must be non-negative numbers")
        if abs(float(p.sum()) - 1.0) > _SUM_TOLERANCE:
            raise ValueError("probabilities do not sum to 1")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        self.cdf: List[float] = cdf.tolist()

    def __call__(self, rng: np.random.Generator) -> int:
        return bisect_right(self.cdf, rng.random())


def _normalized(weights: Sequence[float]) -> np.ndarray:
    weights = np.array(weights)
    return weights / weights.sum()


#: A content mix ready to draw from: its types and their draw.
ContentMix = Tuple[List[ContentType], WeightedDraw]

#: One planned request: (hostname, popular-or-None, content mix).
_Slot = Tuple[str, Optional[profiles.PopularHostname], ContentMix]


@dataclass(frozen=True)
class TailThirdParty:
    """A long-tail third-party host shared across sites."""

    hostname: str
    asn: int
    org: str


@dataclass
class DatasetConfig:
    """Tunables for dataset synthesis (defaults reproduce the paper)."""

    site_count: int = 1000
    #: The paper's rank space; synthetic ranks scale into it for
    #: Table 1 bucketing.
    rank_space: int = 500_000
    seed: int = 2022
    subresource_sigma: float = 0.75
    max_subresources: int = 400
    min_subresources: int = 5
    mean_discovery_delay_ms: float = 45.0
    anonymous_fetch_rate: float = profiles.ANONYMOUS_FETCH_RATE
    insecure_rate: float = 0.0147
    #: Probability a site's certificate carries a wildcard that covers
    #: its own shards (those sites need no cert changes for shards).
    shard_wildcard_cert_rate: float = 0.55
    #: Probability an explicit (non-wildcard) shard name is already in
    #: the certificate SAN.
    shard_in_san_rate: float = 0.40
    zero_san_rate: float = 0.035
    medium_san_rate: float = 0.012
    huge_san_rate: float = 0.0016
    tail_host_h1_rate: float = 0.22
    #: Number of shared tail third-party hosts and their AS pool.
    tail_third_party_count: int = 60
    tail_cdn_as_count: int = 24
    #: Mean tail third parties per page.
    tail_third_parties_per_page: float = 5.5
    #: Popular (Table 7/9) hosts are mostly loaded through plain
    #: <script>/<link> tags; their fetch()/crossorigin share is lower
    #: than the general third-party rate.
    popular_anonymous_rate: float = 0.12
    #: Per-hostname usage-rate overrides, e.g. boost the deployment
    #: third party so the §5 sample is large enough at small N.
    popular_usage_overrides: Dict[str, float] = field(default_factory=dict)
    #: Per-provider site-share overrides (fractions of all sites).
    provider_site_share_overrides: Dict[str, float] = field(
        default_factory=dict
    )

    def tranco(self) -> TrancoList:
        return TrancoList(self.site_count)

    def scaled_rank(self, rank: int) -> int:
        """Map a synthetic rank into the paper's 500K rank space."""
        return max(1, round(rank * self.rank_space / self.site_count))


@dataclass
class SiteRecord:
    """Everything the world builder needs to materialize one site."""

    entry: TrancoEntry
    #: Provider name from :data:`profiles.PROVIDERS`, or "" if the
    #: site is self-hosted on its own tail AS.
    provider: str
    tail_asn: int
    tail_org: str
    shards: Tuple[str, ...]
    page: WebPage
    cert_san: Tuple[str, ...]
    issuer: str
    accessible: bool
    h1_only: bool
    scaled_rank: int

    @property
    def root_hostname(self) -> str:
        return self.entry.www_hostname

    @property
    def self_hosted(self) -> bool:
        return self.provider == ""

    def own_hostnames(self) -> Tuple[str, ...]:
        return (self.root_hostname, self.entry.domain) + self.shards


class PageGenerator:
    """Plans sites deterministically from a seeded RNG."""

    def __init__(self, config: Optional[DatasetConfig] = None) -> None:
        self.config = config or DatasetConfig()
        self.rng = np.random.default_rng(self.config.seed)
        self.tail_third_parties = self._make_tail_third_parties()
        self._provider_names = [p.name for p in profiles.PROVIDERS]
        self._provider_site_shares = np.array([
            self.config.provider_site_share_overrides.get(
                p.name, p.site_share
            )
            for p in profiles.PROVIDERS
        ])
        # One draw object per mix, built on first use: normalising and
        # validating the same weights for every resource dominated
        # planning time and always yields the same bits.
        self._mix_cache: Dict[
            Tuple[Tuple[ContentType, float], ...], ContentMix
        ] = {}
        self._global_mix = self._content_mix(profiles.CONTENT_TYPE_WEIGHTS)
        self._shard_count = WeightedDraw(SHARD_COUNT_SHARES)
        self._tail_issuers = [name for name, _ in profiles.TAIL_ISSUERS]
        self._tail_issuer = WeightedDraw(
            _normalized([w for _, w in profiles.TAIL_ISSUERS])
        )

    # -- shared pools ------------------------------------------------------

    def _make_tail_third_parties(self) -> Tuple[TailThirdParty, ...]:
        config = self.config
        out = []
        for index in range(config.tail_third_party_count):
            as_index = index % config.tail_cdn_as_count
            out.append(
                TailThirdParty(
                    hostname=f"cdn{index:02d}.tailcdn{as_index:02d}.net",
                    asn=TAIL_CDN_ASN_BASE + as_index,
                    org=f"Tail CDN {as_index:02d}",
                )
            )
        return tuple(out)

    # -- sampling helpers ------------------------------------------------------

    def _pick_provider(self) -> str:
        """Provider name, or "" for self-hosted."""
        roll = self.rng.random()
        cumulative = 0.0
        for name, share in zip(self._provider_names,
                               self._provider_site_shares):
            cumulative += share
            if roll < cumulative:
                return name
        return ""

    def _content_mix(
        self, mix: Tuple[Tuple[ContentType, float], ...]
    ) -> ContentMix:
        cached = self._mix_cache.get(mix)
        if cached is None:
            cached = (
                [t for t, _ in mix],
                WeightedDraw(_normalized([w for _, w in mix])),
            )
            self._mix_cache[mix] = cached
        return cached

    def _provider_mix(self, provider: str) -> ContentMix:
        """The mix of what ``provider`` serves ("" = self-hosted): its
        Table 6 mix if it has one, else the global Table 5 mix."""
        content = None
        if provider:
            content = profiles.provider_by_name(provider).content_mix
        return self._global_mix if content is None \
            else self._content_mix(content)

    def _bucket_index(self, scaled_rank: int) -> int:
        bucket = (scaled_rank - 1) // 100_000
        return min(bucket, len(profiles.SUCCESS_RATE_BY_BUCKET) - 1)

    def _subresource_count(self, scaled_rank: int) -> int:
        config = self.config
        median = profiles.MEDIAN_REQUESTS_BY_BUCKET[
            self._bucket_index(scaled_rank)
        ]
        count = int(round(float(
            np.exp(self.rng.normal(np.log(median),
                                   config.subresource_sigma))
        )))
        return int(np.clip(count, config.min_subresources,
                           config.max_subresources))

    def _size_for(self, content_type: ContentType) -> int:
        base = CONTENT_TYPE_SIZES[content_type]
        return max(200, int(base * self.rng.lognormal(0.0, 0.5)))

    # -- the main act -----------------------------------------------------------

    def generate(self, entry: TrancoEntry) -> SiteRecord:
        config = self.config
        rng = self.rng
        scaled_rank = config.scaled_rank(entry.rank)
        provider = self._pick_provider()

        # Own shards on the same provider/host.
        shard_count = self._shard_count(rng)
        shards = tuple(
            f"{SHARD_LABELS[i]}.{entry.domain}" for i in range(shard_count)
        )

        # Popular third parties, by usage rate.
        populars = [
            popular for popular in profiles.POPULAR_THIRD_PARTIES
            if rng.random() < config.popular_usage_overrides.get(
                popular.hostname, popular.usage_rate
            )
        ]

        # Long-tail third parties from the shared pool.
        tail_count = min(
            rng.poisson(config.tail_third_parties_per_page),
            len(self.tail_third_parties),
        )
        tail_indices = rng.choice(
            len(self.tail_third_parties), size=tail_count, replace=False
        ) if tail_count else []
        tails = [self.tail_third_parties[i] for i in tail_indices]

        resources = self._build_resources(
            entry, provider, shards, populars, tails, scaled_rank
        )
        page = WebPage(
            hostname=entry.www_hostname,
            root_size_bytes=self._size_for(ContentType.TEXT_HTML),
            resources=resources,
            rank=scaled_rank,
        )

        cert_san, issuer = self._plan_certificate(entry, provider, shards)
        bucket = self._bucket_index(scaled_rank)
        accessible = bool(
            rng.random() < profiles.SUCCESS_RATE_BY_BUCKET[bucket]
        )
        h1_only = False
        if provider == "":
            h1_only = bool(rng.random() < config.tail_host_h1_rate)
        else:
            h1_only = bool(
                rng.random() < profiles.provider_by_name(provider).h1_only_rate
            )

        return SiteRecord(
            entry=entry,
            provider=provider,
            tail_asn=TAIL_SITE_ASN_BASE + entry.rank,
            tail_org=f"Self-hosted {entry.domain}",
            shards=shards,
            page=page,
            cert_san=cert_san,
            issuer=issuer,
            accessible=accessible,
            h1_only=h1_only,
            scaled_rank=scaled_rank,
        )

    # -- resources ------------------------------------------------------------

    def _build_resources(
        self,
        entry: TrancoEntry,
        provider: str,
        shards: Sequence[str],
        populars: Sequence[profiles.PopularHostname],
        tails: Sequence[TailThirdParty],
        scaled_rank: int,
    ) -> List[Subresource]:
        config = self.config
        rng = self.rng
        budget = self._subresource_count(scaled_rank)

        root_hostname = entry.www_hostname
        own_mix = self._provider_mix(provider)
        root_slot: _Slot = (root_hostname, None, own_mix)

        root_share = rng.uniform(0.25, 0.45)
        root_requests = max(2, int(budget * root_share))
        slots: List[_Slot] = [root_slot] * root_requests
        for shard in shards:
            slots.extend(
                [(shard, None, own_mix)] * max(1, rng.poisson(6.0))
            )
        for popular in populars:
            slots.extend(
                [(popular.hostname, popular,
                  self._content_mix(popular.content))]
                * max(1, rng.poisson(popular.requests_per_page))
            )
        for tail in tails:
            slots.extend(
                [(tail.hostname, None, self._global_mix)]
                * max(1, rng.poisson(2.5))
            )

        # Trim or pad toward the budget (keep at least one request per
        # hostname by trimming from the root's surplus first).
        if len(slots) > budget:
            surplus = len(slots) - budget
            root_slots = [s for s in slots if s[0] == root_hostname]
            removable = min(surplus, max(0, len(root_slots) - 2))
            if removable:
                kept_roots = root_slots[:-removable]
                others = [s for s in slots if s[0] != root_hostname]
                slots = kept_roots + others
        elif len(slots) < budget:
            slots.extend([root_slot] * (budget - len(slots)))

        # Interleave hostnames so dependency chains cross hosts the way
        # real pages do (a CSS file on one shard pulling fonts from
        # another provider), rather than staying host-local.
        slots = [slots[i] for i in rng.permutation(len(slots)).tolist()]

        resources: List[Subresource] = []
        discoverable_paths: List[str] = []
        for index, (hostname, popular, (types, draw)) in enumerate(slots):
            content_type = types[draw(rng)]
            path = f"/r{index:04d}{_PATH_SUFFIX[content_type]}"

            parent: Optional[str] = None
            if discoverable_paths and rng.random() < 0.62:
                parent = discoverable_paths[
                    # Bias toward recent discoveries: deeper chains,
                    # like real pages' script-loads-script cascades.
                    rng.integers(max(0, len(discoverable_paths) - 3),
                                 len(discoverable_paths))
                ]

            third_party = hostname != root_hostname and \
                hostname not in shards
            fetch_mode = FetchMode.NORMAL
            if third_party and (
                content_type.is_script
                or content_type is ContentType.APPLICATION_JSON
                or content_type is ContentType.FONT_WOFF2
            ):
                anonymous_rate = (
                    config.popular_anonymous_rate if popular is not None
                    else config.anonymous_fetch_rate
                )
                if rng.random() < anonymous_rate:
                    fetch_mode = (
                        FetchMode.SCRIPT_FETCH
                        if content_type is ContentType.APPLICATION_JSON
                        else FetchMode.CORS_ANONYMOUS
                    )

            secure = bool(rng.random() >= config.insecure_rate)

            resource = Subresource(
                hostname=hostname,
                path=path,
                content_type=content_type,
                size_bytes=self._size_for(content_type),
                parent=parent,
                discovery_delay_ms=float(
                    rng.exponential(config.mean_discovery_delay_ms)
                ),
                fetch_mode=fetch_mode,
                secure=secure,
            )
            resources.append(resource)
            if content_type.can_discover_children:
                discoverable_paths.append(path)
        return resources

    # -- certificates -----------------------------------------------------------

    def _plan_certificate(
        self,
        entry: TrancoEntry,
        provider: str,
        shards: Sequence[str],
    ) -> Tuple[Tuple[str, ...], str]:
        config = self.config
        rng = self.rng

        if provider:
            issuer = profiles.provider_by_name(provider).issuer
        else:
            issuer = self._tail_issuers[self._tail_issuer(rng)]

        roll = rng.random()
        if roll < config.zero_san_rate:
            return (), issuer

        san: List[str] = [entry.www_hostname, entry.domain]
        if shards:
            if rng.random() < config.shard_wildcard_cert_rate:
                san.append(f"*.{entry.domain}")
            else:
                for shard in shards:
                    if rng.random() < config.shard_in_san_rate:
                        san.append(shard)

        roll = rng.random()
        if roll < config.huge_san_rate:
            extra = int(rng.integers(250, 1900))
            san.extend(
                f"alt{j:04d}.customer{entry.rank:06d}.net"
                for j in range(extra)
            )
        elif roll < config.huge_san_rate + config.medium_san_rate:
            extra = int(rng.integers(15, 100))
            san.extend(
                f"alt{j:04d}.customer{entry.rank:06d}.net"
                for j in range(extra)
            )
        return tuple(san), issuer

    def generate_all(
        self, entries: Optional[Iterable[TrancoEntry]] = None
    ) -> List[SiteRecord]:
        """Plan ``entries`` (default: the whole Tranco list) in order.
        Every call draws from the one generator, so successive calls
        over consecutive runs of the list plan exactly what one call
        over their concatenation would."""
        if entries is None:
            entries = self.config.tranco()
        return [self.generate(entry) for entry in entries]
