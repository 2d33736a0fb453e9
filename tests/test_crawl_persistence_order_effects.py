"""Crawl persistence (HAR round trips) and §6.1 cache order effects."""

import numpy as np
import pytest

from repro.browser import FirefoxPolicy
from repro.core.predictions import figure3
from repro.dataset.crawler import Crawler, CrawlResult
from repro.dataset.generator import DatasetConfig
from repro.dataset.world import build_world
from tests.test_crawl_cache import save


class TestCrawlPersistence:
    def test_save_and_load_roundtrip(self, tmp_path):
        world = build_world(DatasetConfig(site_count=20, seed=8))
        result = Crawler(world).crawl()
        path = tmp_path / "crawl.jsonl"
        save(result, path)

        restored = CrawlResult.load(path)
        assert restored.attempted == result.attempted
        assert restored.success_count == result.success_count
        # Entry-level fidelity.
        for a, b in zip(result.archives, restored.archives):
            assert a.page == b.page
            assert a.entries == b.entries

    def test_analyses_work_on_reloaded_crawls(self, tmp_path):
        """The §4 model runs identically on persisted HARs -- the
        paper's own pipeline operated on stored HAR files."""
        world = build_world(DatasetConfig(site_count=20, seed=8))
        result = Crawler(world).crawl()
        path = tmp_path / "crawl.jsonl"
        save(result, path)
        restored = CrawlResult.load(path)
        assert figure3(result.archives).medians() == \
            figure3(restored.archives).medians()

    def test_loading_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CrawlResult.load(tmp_path / "nope.jsonl")


class TestOrderEffects:
    """§6.1: with caches enabled, visiting page A before B differs
    from B before A; the paper cleared caches to avoid exactly this."""

    def _engine_and_pages(self):
        from repro.browser import BrowserContext, BrowserEngine

        world = build_world(DatasetConfig(site_count=30, seed=12))
        # Fully deterministic context: no latency jitter, no TLS
        # version draws, no speculative races -- so any difference
        # between loads is the cache, not noise.
        context = BrowserContext(
            network=world.network,
            client_host=world.client_host,
            resolver=world.make_resolver(median_latency_ms=20.0),
            trust_store=world.trust_store,
            authorities=world.authorities,
            policy=FirefoxPolicy(),
            asdb=world.asdb,
            cache_enabled=True,
        )
        context.resolver._rng = None  # fixed-latency queries
        engine = BrowserEngine(context)
        accessible = [h for h in world.sites if h.record.accessible]
        # Two sites sharing popular third parties.
        page_a = accessible[0].record.page
        page_b = accessible[1].record.page
        return engine, page_a, page_b

    def test_second_page_benefits_from_shared_cache(self):
        engine, page_a, page_b = self._engine_and_pages()
        # Cold B (fresh session).
        engine.new_session()
        cold_b = engine.load_blocking(page_b)
        # A then B without clearing anything in between.
        engine.new_session()
        engine.load_blocking(page_a)
        warm_b = engine.load_blocking(page_b)
        assert warm_b.tls_connection_count() <= \
            cold_b.tls_connection_count()
        shared_hosts = set(page_a.hostnames()) & set(page_b.hostnames())
        if shared_hosts - {page_b.hostname}:
            # Shared third-party hostnames resolve from the DNS cache.
            assert warm_b.dns_query_count() <= cold_b.dns_query_count()

    def test_new_session_removes_order_effects(self):
        """The paper's methodology: clearing caches between loads makes
        measurements order-independent."""
        engine, page_a, page_b = self._engine_and_pages()
        engine.new_session()
        b_first = engine.load_blocking(page_b)

        engine.new_session()
        engine.load_blocking(page_a)
        engine.new_session()  # the reset under test
        b_after_reset = engine.load_blocking(page_b)

        assert b_after_reset.tls_connection_count() == \
            b_first.tls_connection_count()
        assert b_after_reset.dns_query_count() == \
            b_first.dns_query_count()
