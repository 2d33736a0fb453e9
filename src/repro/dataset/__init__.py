"""Synthetic web dataset: generation, crawling, characterization.

The paper crawled 315,796 of the Tranco top-500K sites (§3.1).  This
package synthesizes a web whose *marginal statistics* are calibrated to
the paper's published tables -- provider request shares (Table 2),
protocol mix (Table 3), certificate issuers (Table 4), content types
(Tables 5-6), popular subresource hostnames (Tables 7 and 9), per-page
request/DNS/TLS medians (Table 1) -- then crawls it with the real
browser engine over the real protocol stack, and recomputes every
table from the resulting HAR archives.
"""

from repro.dataset.profiles import (
    PROVIDERS,
    ProviderProfile,
    CONTENT_TYPE_WEIGHTS,
    TAIL_ISSUERS,
    POPULAR_THIRD_PARTIES,
    PopularHostname,
)
from repro.dataset.tranco import TrancoList
from repro.dataset.generator import DatasetConfig, SiteRecord, PageGenerator
from repro.dataset.world import SyntheticWorld, build_world
from repro.dataset.crawler import Crawler, CrawlParams, CrawlResult
from repro.dataset.shard import (
    ShardResult,
    ShardSpec,
    crawl_shards,
    default_shard_count,
    derive_seed,
    plan_shards,
)
from repro.dataset.cache import CrawlCache, cache_key
from repro.dataset import characterize

__all__ = [
    "PROVIDERS",
    "ProviderProfile",
    "CONTENT_TYPE_WEIGHTS",
    "TAIL_ISSUERS",
    "POPULAR_THIRD_PARTIES",
    "PopularHostname",
    "TrancoList",
    "DatasetConfig",
    "SiteRecord",
    "PageGenerator",
    "SyntheticWorld",
    "build_world",
    "Crawler",
    "CrawlResult",
    "CrawlParams",
    "ShardResult",
    "ShardSpec",
    "crawl_shards",
    "default_shard_count",
    "derive_seed",
    "plan_shards",
    "CrawlCache",
    "cache_key",
    "characterize",
]
