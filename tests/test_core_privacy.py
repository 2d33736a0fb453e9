"""Tests for the §6.2 privacy exposure analysis."""

import pytest

from repro.core.grouping import by_asn
from repro.core.privacy import compare_privacy, exposure_from_archive
from tests.test_core_timeline import archive, entry


def leaky_page():
    """Root + two same-AS subresources + one cleartext resource."""
    return archive([
        entry("www.a.com", "/", 0.0, asn=10, dns=20.0, connect=30.0,
              ssl=30.0, initiator=""),
        entry("s1.a.com", "/1", 100.0, asn=10, dns=10.0, connect=30.0,
              ssl=30.0),
        entry("s2.a.com", "/2", 100.0, asn=10, dns=10.0, connect=30.0,
              ssl=30.0),
        entry("plain.b.com", "/3", 100.0, asn=20, dns=10.0,
              connect=30.0, secure=False, protocol="http/1.1"),
    ])


class TestExposure:
    def test_counts_dns_and_sni(self):
        exposure = exposure_from_archive(leaky_page())
        assert exposure.plaintext_dns_queries == 4
        assert exposure.plaintext_sni_handshakes == 3  # plain has no TLS
        assert "www.a.com" in exposure.dns_leaked
        assert "plain.b.com" in exposure.leaked_hostnames

    def test_encrypted_dns_hides_queries(self):
        exposure = exposure_from_archive(leaky_page(), encrypted_dns=True)
        assert exposure.plaintext_dns_queries == 0
        # SNI still leaks.
        assert exposure.plaintext_sni_handshakes == 3

    def test_ech_hides_sni(self):
        exposure = exposure_from_archive(leaky_page(), ech=True)
        assert exposure.plaintext_sni_handshakes == 0
        # DNS still leaks, and so does cleartext HTTP.
        assert exposure.plaintext_dns_queries == 4
        assert "plain.b.com" in exposure.leaked_hostnames

    def test_reused_connections_leak_nothing(self):
        page = archive([
            entry("www.a.com", "/", 0.0, asn=10, dns=20.0, connect=30.0,
                  ssl=30.0, initiator=""),
            entry("www.a.com", "/again", 200.0, asn=10),  # reuse
        ])
        exposure = exposure_from_archive(page)
        assert exposure.plaintext_dns_queries == 1
        assert exposure.plaintext_sni_handshakes == 1


class TestComparison:
    def test_ideal_origin_reduces_signals(self):
        comparison = compare_privacy([leaky_page()])
        medians = comparison.median_signals()
        assert medians["ideal_origin"] < medians["measured"]
        assert comparison.signal_reduction() > 0

    def test_coalesced_hostnames_hidden_entirely(self):
        comparison = compare_privacy([leaky_page()])
        measured = comparison.measured[0]
        ideal = comparison.ideal_origin[0]
        # s1/s2 coalesce onto the root connection: their names vanish
        # from the wire entirely.
        assert "s1.a.com" in measured.leaked_hostnames
        assert "s1.a.com" not in ideal.leaked_hostnames
        assert "s2.a.com" not in ideal.leaked_hostnames
        # The root and the other-AS hostname still leak.
        assert "www.a.com" in ideal.leaked_hostnames
        assert comparison.median_hostnames_hidden() >= 2

    def test_failed_pages_excluded(self):
        bad = leaky_page()
        bad.page.success = False
        comparison = compare_privacy([bad, leaky_page()])
        assert len(comparison.measured) == 1

    def test_crawl_level_reduction(self, small_world):
        from tests.test_browser_engine import simple_page
        from repro.browser import ChromiumPolicy

        engine = small_world.engine(ChromiumPolicy())
        archives = [engine.load_blocking(simple_page())]
        comparison = compare_privacy(archives)
        assert comparison.signal_reduction() >= 0
