"""Tests for count predictions, the certificate plan, and Fig 3/9 data."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.certplan import (
    CertificatePlan,
    SitePlan,
    plan_certificates,
    provider_addition_table,
    san_distribution_table,
)
from repro.core.coalescing import (
    ideal_ip_counts,
    ideal_origin_counts,
    origin_set_for_page,
)
from repro.core.predictions import (
    Figure3Data,
    PltPrediction,
    figure3,
    headline_reductions,
    predict_plt,
)
from repro.dataset.crawler import Crawler
from repro.dataset.generator import DatasetConfig
from repro.dataset.world import build_world
from repro.deployment.experiment import deployment_world_config
from repro.dnssim.resolver import NxDomain
from tests.test_core_timeline import archive, entry


@pytest.fixture(scope="module")
def crawled_world():
    config = DatasetConfig(site_count=120, seed=2022)
    world = build_world(config)
    crawler = Crawler(world)
    return world, crawler.crawl()


def site_records(world):
    return [hosted.record for hosted in world.sites]


def served_plan(world):
    """The §4.3 plan as the world serves it: every page hostname
    resolved through the world's DNS and AS database (coalescable when
    it lands on the root's AS), and the certificate the site serves."""
    asns = {}

    def asn_of(hostname):
        if hostname not in asns:
            try:
                addresses, _, _ = world.dns_authority.query(hostname)
            except NxDomain:
                addresses = []
            asns[hostname] = (world.asdb.asn_of(addresses[0])
                              if addresses else None)
        return asns[hostname]

    plans = []
    for hosted in world.sites:
        record, certificate = hosted.record, hosted.certificate
        root_asn = asn_of(record.root_hostname)
        coalescable = tuple(
            hostname for hostname in record.page.hostnames()
            if hostname != record.root_hostname and root_asn is not None
            and asn_of(hostname) == root_asn
        )
        plans.append(SitePlan(
            provider=record.provider,
            own_hostnames=record.own_hostnames(),
            existing_san_count=certificate.san_count,
            coalescable=coalescable,
            additions=tuple(hostname for hostname in coalescable
                            if not certificate.covers(hostname)),
        ))
    return CertificatePlan(plans=plans)


def three_service_page():
    """Root AS 10 (3 hostnames), AS 20 (2 hostnames), AS 30 (1)."""
    entries = [
        entry("www.a.com", "/", 0.0, asn=10, ip="10.0.0.1", dns=20.0,
              connect=30.0, ssl=30.0, initiator=""),
        entry("s1.a.com", "/1", 100.0, asn=10, ip="10.0.0.2", dns=10.0,
              connect=30.0, ssl=30.0),
        entry("s2.a.com", "/2", 100.0, asn=10, ip="10.0.0.1", dns=10.0,
              connect=30.0, ssl=30.0),
        entry("x.b.com", "/3", 100.0, asn=20, ip="10.2.0.1", dns=10.0,
              connect=30.0, ssl=30.0),
        entry("y.b.com", "/4", 100.0, asn=20, ip="10.2.0.2", dns=10.0,
              connect=30.0, ssl=30.0),
        entry("z.c.com", "/5", 100.0, asn=30, ip="10.3.0.1", dns=10.0,
              connect=30.0, ssl=30.0),
        # A same-host reuse: no DNS, no TLS.
        entry("www.a.com", "/6", 200.0, asn=10, ip="10.0.0.1"),
    ]
    return archive(entries)


class TestCountPredictions:
    def test_measured_counts(self):
        data = figure3([three_service_page()])
        assert data.measured_dns == [6]
        assert data.measured_tls == [6]

    def test_ideal_origin_counts_by_service(self):
        counts = ideal_origin_counts(three_service_page())
        assert counts.dns_queries == 3
        assert counts.tls_connections == 3

    def test_ideal_ip_counts_by_address(self):
        # 5 distinct IPs among the entries.
        counts = ideal_ip_counts(three_service_page())
        assert counts.tls_connections == 5

    def test_ordering_invariant(self):
        page = three_service_page()
        origin = ideal_origin_counts(page).tls_connections
        ip = ideal_ip_counts(page).tls_connections
        measured = page.tls_connection_count()
        assert origin <= ip <= measured

    def test_failed_entries_excluded_from_services(self):
        entries = [
            entry("www.a.com", "/", 0.0, asn=10, dns=20.0, connect=30.0,
                  ssl=30.0, initiator=""),
            entry("broken.d.com", "/x", 100.0, asn=40, status=0),
        ]
        counts = ideal_origin_counts(archive(entries))
        assert counts.tls_connections == 1

    def test_origin_set_for_page(self):
        sets = origin_set_for_page(three_service_page())
        assert set(sets["asn:10"]) == {"www.a.com", "s1.a.com", "s2.a.com"}
        assert set(sets["asn:20"]) == {"x.b.com", "y.b.com"}
        assert "asn:30" not in sets  # singleton services advertise nothing


class TestFigure3OnCrawl:
    def test_medians_ordered_like_the_paper(self, crawled_world):
        _, result = crawled_world
        data = figure3(result.archives)
        medians = data.medians()
        # Paper: ORIGIN (5) < IP (13) < DNS (14) <= TLS (16).
        assert medians["ideal_origin"] < medians["ideal_ip"]
        assert medians["ideal_ip"] <= medians["measured_dns"] + 1
        assert medians["measured_dns"] <= medians["measured_tls"]

    def test_origin_tls_reduction_near_two_thirds(self, crawled_world):
        _, result = crawled_world
        reductions = figure3(result.archives).reduction_vs_measured()
        # Paper: ~67% fewer TLS connections under ideal ORIGIN.
        assert 0.45 <= reductions["origin_tls_reduction"] <= 0.85

    def test_origin_dns_reduction_substantial(self, crawled_world):
        _, result = crawled_world
        reductions = figure3(result.archives).reduction_vs_measured()
        # Paper: ~64%; our synthetic pages land lower but clearly large.
        assert reductions["origin_dns_reduction"] >= 0.25

    def test_ip_reduction_modest(self, crawled_world):
        """IP coalescing alone is the small win (paper: ~7% DNS)."""
        _, result = crawled_world
        reductions = figure3(result.archives).reduction_vs_measured()
        assert reductions["ip_dns_reduction"] < \
            reductions["origin_dns_reduction"]

    def test_validation_percentiles_shrink(self, crawled_world):
        _, result = crawled_world
        stats = figure3(result.archives).validation_percentiles()
        assert stats["ideal_p75"] < stats["measured_p75"]
        assert stats["ideal_iqr"] < stats["measured_iqr"]

    def test_headline_reductions(self, crawled_world):
        _, result = crawled_world
        headline = headline_reductions(result.archives)
        assert headline["validation_reduction"] > 0.4
        assert headline["dns_reduction"] > 0.2

    def test_the_fold_counts_each_page_as_the_model_does(
            self, crawled_world):
        """Figure 3 is a view over the crawl's fold; its series are
        each successful page's own counts, in crawl order."""
        _, result = crawled_world
        ok = result.successes
        assert figure3(result.archives) == Figure3Data(
            measured_dns=[a.dns_query_count() for a in ok],
            measured_tls=[a.tls_connection_count() for a in ok],
            ideal_ip=[ideal_ip_counts(a).tls_connections for a in ok],
            ideal_origin=[ideal_origin_counts(a).tls_connections
                          for a in ok],
        )

    def test_reductions_of_no_page_are_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert headline_reductions([]) == {
                "dns_reduction": 0.0, "validation_reduction": 0.0}
            assert set(figure3([]).medians().values()) == {0.0}

    def test_validation_percentiles_of_no_page_are_zero(self):
        stats = Figure3Data([], [], [], []).validation_percentiles()
        assert stats == {"measured_p75": 0.0, "ideal_p75": 0.0,
                         "measured_iqr": 0.0, "ideal_iqr": 0.0}


class TestPltPrediction:
    def test_model_orderings(self, crawled_world):
        _, result = crawled_world
        prediction = predict_plt(result.archives, cdn_asn=13335)
        improvements = prediction.median_improvements()
        # No model may make pages slower at the median...
        assert improvements["origin"] >= 0.0
        assert improvements["ip"] >= 0.0
        assert improvements["cdn_origin"] >= 0.0
        # ...and full ORIGIN dominates both partial models.
        assert improvements["origin"] >= improvements["ip"] - 1e-9
        assert improvements["origin"] >= improvements["cdn_origin"] - 1e-9

    def test_median_improvements_of_no_page_are_empty(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert PltPrediction([], [], []).median_improvements() == {}

    def test_reconstruction_never_increases_plt(self, crawled_world):
        _, result = crawled_world
        prediction = predict_plt(result.archives)
        for before, after in zip(prediction.measured,
                                 prediction.ideal_origin):
            assert after <= before + 1e-6


class TestCertificatePlan:
    def test_unchanged_fraction_near_paper(self, crawled_world):
        world, result = crawled_world
        plan = plan_certificates(site_records(world))
        # Paper: 62.41% need no modifications.
        assert 0.45 <= plan.unchanged_fraction <= 0.80

    def test_small_changes_cover_most_sites(self, crawled_world):
        world, _ = crawled_world
        plan = plan_certificates(site_records(world))
        # Paper: <=10 changes covers 92.66%.
        assert plan.fraction_with_changes_at_most(10) >= 0.85

    def test_median_san_shift(self, crawled_world):
        world, _ = crawled_world
        plan = plan_certificates(site_records(world))
        before, after = plan.median_san_shift()
        assert after > before  # paper: 2 -> 3 among changed certs

    def test_additions_are_same_as_hostnames(self, crawled_world):
        world, _ = crawled_world
        plan = plan_certificates(site_records(world))
        certificates = {
            hosted.record.own_hostnames(): hosted.certificate
            for hosted in world.sites
        }
        resolver_plan = [p for p in plan.plans if p.additions]
        assert resolver_plan, "no site needs additions?"
        for site_plan in resolver_plan[:20]:
            certificate = certificates[site_plan.own_hostnames]
            assert site_plan.existing_san_count == certificate.san_count
            for hostname in site_plan.additions:
                assert hostname in site_plan.coalescable
                assert not certificate.covers(hostname)

    def test_figure5_series_shapes(self, crawled_world):
        world, _ = crawled_world
        plan = plan_certificates(site_records(world))
        series = plan.figure5_series()
        assert len(series["existing"]) == plan.site_count
        assert series["existing"] == sorted(series["existing"],
                                            reverse=True)
        assert series["ideal"] == sorted(series["ideal"], reverse=True)

    def test_huge_san_sites_grow(self, crawled_world):
        world, _ = crawled_world
        plan = plan_certificates(site_records(world))
        before, after = plan.sites_with_san_over(10)
        assert after >= before

    def test_table8_structure(self, crawled_world):
        world, _ = crawled_world
        plan = plan_certificates(site_records(world))
        rows = san_distribution_table(plan, top=5)
        assert len(rows) == 5
        # Measured column counts are in descending order.
        measured_counts_col = [row[2] for row in rows]
        assert measured_counts_col == sorted(measured_counts_col,
                                             reverse=True)

    def test_table9_providers_and_hostnames(self, crawled_world):
        world, _ = crawled_world
        plan = plan_certificates(site_records(world))
        rows = provider_addition_table(plan)
        assert rows
        providers = [row[0] for row in rows]
        assert "Cloudflare" in providers  # hosts ~25% of sites
        for _, site_count, share, host_rows in rows:
            assert site_count > 0
            assert 0 < share < 1
            for hostname, count, host_share in host_rows:
                assert count <= site_count
                assert 0 < host_share <= 1


class TestPlanIsWhatTheWorldServes:
    """The plan reads site records only; the world built from them
    must serve exactly that plan."""

    @pytest.mark.parametrize("config", [
        DatasetConfig(site_count=60, seed=2022),
        deployment_world_config(),
    ], ids=["world-60", "deployment-300"])
    def test_fixed_worlds(self, config):
        world = build_world(config)
        assert plan_certificates(site_records(world)) == served_plan(world)

    @given(site_count=st.integers(2, 12), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_drawn_worlds(self, site_count, seed):
        world = build_world(DatasetConfig(site_count=site_count, seed=seed))
        assert plan_certificates(site_records(world)) == served_plan(world)
