"""The WPT-style crawler.

Drives the browser engine over every accessible site in a synthetic
world, one fresh browser session per page (no DNS or resource cache
carry-over, matching §3.1), and collects HAR archives.  Inaccessible
sites -- the paper lost 36.5% of attempts to non-200s and CAPTCHAs --
are recorded as failed page loads without being fetched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.browser import BrowserContext, BrowserEngine
from repro.browser.policy import policy_by_name
from repro.browser.retry import RetryPolicy
from repro.dataset.world import SyntheticWorld
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.web.har import HarArchive, HarPage


@dataclass
class CrawlResult:
    """All archives from one crawl, attempted and successful: the
    library's page sink that keeps them, and the cache entry's format
    (:func:`repro.dataset.shard.crawl_shards` hands a sink each archive
    as its shard merges; :class:`repro.dataset.characterize.CrawlFold`,
    every CLI command's, keeps none)."""

    archives: List[HarArchive] = field(default_factory=list)

    def add(self, archive: HarArchive) -> None:
        self.archives.append(archive)

    @property
    def attempted(self) -> int:
        return len(self.archives)

    @property
    def successes(self) -> List[HarArchive]:
        """Successful archives, in crawl order."""
        return [a for a in self.archives if a.page.success]

    @property
    def success_count(self) -> int:
        return len(self.successes)

    @classmethod
    def load(cls, path, pages=None):
        """Read a crawl back from JSON-lines of HAR archives (one per
        line, as :func:`repro.dataset.shard.write_archive_lines` writes
        them) into the page sink ``pages`` -- a new result, keeping
        them all, by default -- and return the sink.  The paper's
        pipeline stored per-page HAR files in a bucket (§3.1); this is
        the single-file equivalent.

        One memo serves the whole file (:meth:`HarArchive.from_json`),
        so the archives hold each distinct hostname, path, IP or AS org
        once, as a live crawl's do; it goes when the load returns, and
        two loads share no string."""
        if pages is None:
            pages = cls()
        memo: dict = {}
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    pages.add(HarArchive.from_json(line, memo))
        return pages


@dataclass(frozen=True)
class CrawlParams:
    """A crawl's knobs: everything that shapes its archives.  Every
    field keys the crawl cache
    (:func:`repro.dataset.cache.cache_key` hashes them all)."""

    #: A :data:`~repro.browser.policy.POLICY_FACTORIES` name.
    policy: str = "chromium"
    #: Chance that opening a connection races a duplicate
    #: (:attr:`~repro.browser.engine.BrowserContext.speculative_rate`).
    speculative_rate: float = 0.10
    dns_latency_ms: float = 48.0
    seed: int = 7
    #: Comma-joined ALPN offer (``"h2"`` or ``"h2,h3"``).
    alpn: str = "h2"


class Crawler:
    """Loads every site of ``world`` as ``params`` say.  A chaos run
    adds an explicit ``retry_policy`` and the seed of its own retry
    RNG."""

    def __init__(
        self,
        world: SyntheticWorld,
        params: CrawlParams = CrawlParams(),
        telemetry: Telemetry = NULL_TELEMETRY,
        retry_policy: Optional[RetryPolicy] = None,
        retry_seed: Optional[int] = None,
    ) -> None:
        self.world = world
        self.policy = policy_by_name(params.policy)
        self.rng = np.random.default_rng(params.seed)
        # Phase histograms ride the shared metrics registry, so they
        # shard-merge (and stay --jobs-deterministic) for free.
        self.telemetry = telemetry = telemetry.for_profile(self.policy.name)
        self.alpn = tuple(
            p.strip() for p in params.alpn.split(",") if p.strip()
        ) or ("h2",)
        self.resolver = world.make_resolver(
            median_latency_ms=params.dns_latency_ms, telemetry=telemetry
        )
        if "h3" in self.alpn:
            # h3-capable clients also ask for HTTPS/SVCB records
            # (piggybacked on the A query; no extra latency).
            self.resolver.query_https_records = True
        self.context = BrowserContext(
            network=world.network,
            client_host=world.client_host,
            resolver=self.resolver,
            trust_store=world.trust_store,
            authorities=world.authorities,
            policy=self.policy,
            rng=self.rng,
            speculative_rate=params.speculative_rate,
            tls12_rate=0.45,
            asdb=world.asdb,
            telemetry=telemetry,
            alpn=self.alpn,
        )
        if retry_policy is not None:
            # Chaos runs pin an explicit policy; the separate retry
            # RNG keeps jitter draws off the decision stream so a
            # retry-enabled crawl with no faults stays byte-identical.
            self.context.retry_policy = retry_policy
            if retry_seed is not None:
                self.context.retry_rng = np.random.default_rng(retry_seed)
        self.engine = BrowserEngine(self.context)

    def crawl_site(self, hosted) -> HarArchive:
        """Load one site with fresh caches; failures become failed pages."""
        record = hosted.record
        telemetry = self.telemetry
        tracer = telemetry.tracer
        span = None
        if tracer.enabled:
            span = tracer.begin(
                "site", category="crawler", url=record.page.url,
                rank=record.scaled_rank, accessible=record.accessible,
            )
        if not record.accessible:
            # Non-200 / CAPTCHA: the crawler never got a usable page.
            archive = HarArchive(
                page=HarPage(
                    url=record.page.url,
                    hostname=record.root_hostname,
                    rank=record.scaled_rank,
                    success=False,
                    failure_reason="non-200 or CAPTCHA",
                )
            )
            if span is not None:
                tracer.end(span, success=False, requests=0)
            if telemetry.enabled:
                telemetry.metrics.counter("crawler.pages_attempted").inc()
            return archive
        self.engine.new_session()
        archive = self.engine.load_blocking(record.page)
        if span is not None:
            tracer.end(
                span, success=archive.page.success,
                requests=len(archive.entries),
            )
        if telemetry.enabled:
            self._count_page(archive)
        return archive

    def _count_page(self, archive: HarArchive) -> None:
        """Count the finished page in the crawl-level registry and
        record its load-time histogram (the load folded its own pool
        counters in as it finished)."""
        metrics = self.telemetry.metrics
        metrics.counter("crawler.pages_attempted").inc()
        if archive.page.success:
            metrics.counter("crawler.pages_succeeded").inc()
            metrics.histogram("page.load_ms").observe(archive.page.on_load)
            metrics.histogram("page.requests").observe(len(archive.entries))

    def crawl(self) -> CrawlResult:
        result = CrawlResult(
            archives=[self.crawl_site(hosted) for hosted in self.world.sites]
        )
        if self.telemetry.enabled:
            self.resolver.stats.export(self.telemetry.metrics)
        return result
