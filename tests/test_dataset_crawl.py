"""Integration tests: world building, crawling, characterization."""

import numpy as np
import pytest

from repro.dataset.characterize import CrawlFold
from repro.dataset.crawler import Crawler
from repro.dataset.generator import DatasetConfig
from repro.dataset.world import build_world


@pytest.fixture(scope="module")
def crawl():
    """One shared 100-site crawl (module-scoped for speed)."""
    config = DatasetConfig(site_count=100, seed=2022)
    world = build_world(config)
    crawler = Crawler(world)
    return world, crawler.crawl()


class TestWorldIntegrity:
    def test_every_site_materialized(self, crawl):
        world, _ = crawl
        assert len(world.sites) == 100

    def test_asdb_covers_every_server(self, crawl):
        world, _ = crawl
        for hosted in world.sites:
            root_ips, _, _ = world.dns_authority.query(
                hosted.record.root_hostname
            )
            assert root_ips
            for ip in root_ips:
                assert world.asdb.lookup(ip) is not None

    def test_provider_servers_shared_across_sites(self, crawl):
        world, _ = crawl
        cloudflare_sites = [
            hosted for hosted in world.sites
            if hosted.record.provider == "Cloudflare"
        ]
        if len(cloudflare_sites) >= 2:
            assert cloudflare_sites[0].server is cloudflare_sites[1].server

    def test_dns_resolves_every_page_hostname(self, crawl):
        world, _ = crawl
        for hosted in world.sites[:20]:
            for hostname in hosted.record.page.hostnames():
                addresses, _, _ = world.dns_authority.query(hostname)
                assert addresses, hostname


class TestCrawlOutcomes:
    def test_success_rate_near_paper(self, crawl):
        _, result = crawl
        rate = result.success_count / result.attempted
        assert 0.5 <= rate <= 0.8  # paper: 63.5%

    def test_no_request_level_failures_on_successful_pages(self, crawl):
        _, result = crawl
        bad = [
            entry
            for archive in result.successes
            for entry in archive.entries
            if entry.status not in (200,)
        ]
        assert bad == []

    def test_inaccessible_sites_marked_failed(self, crawl):
        _, result = crawl
        failures = [a for a in result.archives if not a.page.success]
        assert failures
        assert all(not a.entries for a in failures)

    def test_medians_in_paper_ballpark(self, crawl):
        _, result = crawl
        ok = result.successes
        med_requests = np.median([len(a.entries) for a in ok])
        med_dns = np.median([a.dns_query_count() for a in ok])
        med_tls = np.median([a.tls_connection_count() for a in ok])
        assert 50 <= med_requests <= 130      # paper: 81
        assert 8 <= med_dns <= 22             # paper: 14
        assert 10 <= med_tls <= 30            # paper: 16
        assert med_tls >= med_dns             # races: TLS > DNS (§4.2)

    def test_page_load_times_order_of_magnitude(self, crawl):
        _, result = crawl
        plts = [a.page_load_time for a in result.successes]
        median = np.median(plts)
        assert 1000 <= median <= 10_000  # paper: 5746ms


class TestCharacterization:
    def test_table1_buckets_and_total(self, crawl):
        _, result = crawl
        rows = CrawlFold.of(result.archives).table1()
        assert rows[-1].bucket_label == "Total"
        assert rows[-1].attempted == 100
        assert sum(r.attempted for r in rows[:-1]) == 100
        assert rows[-1].success == result.success_count

    def test_table2_top_ases(self, crawl):
        _, result = crawl
        rows = CrawlFold.of(result.successes).table2()
        assert rows, "no AS data"
        shares = [share for _, _, _, share in rows]
        assert shares == sorted(shares, reverse=True)
        orgs = [org for _, org, _, _ in rows[:4]]
        assert "Google" in orgs  # Table 2's #1

    def test_table3_protocol_mix(self, crawl):
        _, result = crawl
        protocols, security = CrawlFold.of(result.successes).table3()
        total = sum(protocols.values())
        assert protocols["h2"] / total > 0.60       # paper: 73.6%
        assert protocols["http/1.1"] / total > 0.08  # paper: 19.1%
        insecure_share = security["insecure"] / (
            security["secure"] + security["insecure"]
        )
        assert 0.002 < insecure_share < 0.04         # paper: 1.47%

    def test_table4_issuers(self, crawl):
        _, result = crawl
        rows, validations, total = CrawlFold.of(result.successes).table4()
        assert validations > 0
        assert 0.05 < validations / total < 0.5  # paper: 16.24%
        issuers = [issuer for issuer, _, _ in rows]
        assert any("google trust" in issuer for issuer in issuers) or \
            any("let's encrypt" in issuer for issuer in issuers)

    def test_table5_content_types(self, crawl):
        _, result = crawl
        rows = CrawlFold.of(result.successes).table5()
        top_types = [content_type for content_type, _, _ in rows[:5]]
        assert "application/javascript" in top_types  # Table 5's #1

    def test_table6_per_as_mix(self, crawl):
        _, result = crawl
        table = CrawlFold.of(result.successes).table6()
        assert len(table) == 3
        for (asn, org), rows in table.items():
            assert rows
            shares = [share for _, _, share in rows]
            assert shares == sorted(shares, reverse=True)

    def test_table7_popular_hosts(self, crawl):
        _, result = crawl
        rows = CrawlFold.of(result.successes).table7()
        hostnames = [hostname for hostname, _, _ in rows]
        # The Google staples dominate, as in Table 7.
        assert any("google" in hostname or "gstatic" in hostname
                   for hostname in hostnames[:4])

    def test_figure1_shape(self, crawl):
        _, result = crawl
        data = CrawlFold.of(result.successes).figure1()
        assert data.cdf[-1][1] == pytest.approx(1.0)
        median_ases = np.median(data.as_counts)
        assert 3 <= median_ases <= 12  # paper: >50% within 6 ASes
