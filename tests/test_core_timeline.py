"""Unit tests for the §4.1 waterfall reconstruction on hand-built HARs."""

import pytest

from repro.core.grouping import by_asn, by_ip, by_single_asn
from repro.core.timeline import ReconstructionOptions, reconstruct
from repro.web.har import HarArchive, HarEntry, HarPage, HarTimings


def entry(hostname, path, start, *, asn=1, ip="10.0.0.1", dns=-1.0,
          connect=-1.0, ssl=-1.0, wait=30.0, receive=20.0,
          initiator="/", status=200, protocol="h2", fetch_mode="normal",
          secure=True):
    return HarEntry(
        url=f"https://{hostname}{path}",
        hostname=hostname,
        path=path,
        started_at=start,
        timings=HarTimings(dns=dns, connect=connect, ssl=ssl, wait=wait,
                           receive=receive),
        status=status,
        server_ip=ip,
        protocol=protocol,
        asn=asn,
        as_org=f"AS{asn}",
        fetch_mode=fetch_mode,
        secure=secure,
        initiator_path=initiator,
    )


def archive(entries, on_load=None):
    root = entries[0]
    if on_load is None:
        on_load = max(e.started_at + e.timings.total() for e in entries)
    return HarArchive(
        page=HarPage(url=root.url, hostname=root.hostname,
                     on_load=on_load, on_content_load=on_load),
        entries=entries,
    )


def figure2_archive():
    """The paper's Figure 2 page: root + 5 subresources, 4 coalescable."""
    root = entry("www.example.com", "/", 0.0, asn=10, ip="10.0.0.1",
                 dns=20.0, connect=30.0, ssl=30.0, initiator="")
    # Requests 2-4: sharded/CDN hostnames on the same AS as the root.
    r2 = entry("assets.cdnhost.com", "/js/bootstrap.js", 120.0, asn=10,
               ip="10.0.0.2", dns=25.0, connect=30.0, ssl=30.0)
    r3 = entry("static.example.com", "/js/jquery.js", 122.0, asn=10,
               ip="10.0.0.3", dns=18.0, connect=30.0, ssl=30.0)
    r4 = entry("static.example.com", "/css/style.css", 124.0, asn=10,
               ip="10.0.0.3", dns=17.0, connect=30.0, ssl=30.0)
    # Request 5: a font discovered from the CSS.
    r5 = entry("fonts.cdnhost.com", "/fonts/arial.woff", 320.0, asn=10,
               ip="10.0.0.4", dns=22.0, connect=30.0, ssl=30.0,
               initiator="/css/style.css")
    # Request 6: an unrelated tracker on a different AS.
    r6 = entry("analytics.tracker.com", "/script.js", 130.0, asn=99,
               ip="10.9.9.9", dns=40.0, connect=35.0, ssl=35.0)
    return archive([root, r2, r3, r4, r5, r6])


class TestFigure2Reconstruction:
    def test_coalescable_requests_identified(self):
        result = reconstruct(figure2_archive(), by_asn)
        hosts = {url.split("/")[2] for url in result.coalesced_urls}
        assert hosts == {
            "assets.cdnhost.com", "static.example.com",
            "fonts.cdnhost.com",
        }

    def test_root_never_coalesced(self):
        result = reconstruct(figure2_archive(), by_asn)
        assert not any("www.example.com" in url
                       for url in result.coalesced_urls)

    def test_other_as_not_coalesced(self):
        result = reconstruct(figure2_archive(), by_asn)
        assert not any("analytics.tracker.com" in url
                       for url in result.coalesced_urls)

    def test_plt_improves(self):
        result = reconstruct(figure2_archive(), by_asn)
        assert result.reconstructed.page.on_load < \
            result.original.page.on_load
        assert result.time_saved_ms > 0
        assert 0 < result.plt_improvement < 1

    def test_coalesced_entries_lose_connection_setup(self):
        result = reconstruct(figure2_archive(), by_asn)
        for rebuilt in result.reconstructed.entries:
            if rebuilt.coalesced:
                assert rebuilt.timings.connect == -1.0
                assert rebuilt.timings.ssl == -1.0

    def test_font_child_starts_earlier(self):
        result = reconstruct(figure2_archive(), by_asn)
        font = [e for e in result.reconstructed.entries
                if "arial" in e.path][0]
        original_font = [e for e in result.original.entries
                         if "arial" in e.path][0]
        assert font.started_at < original_font.started_at

    def test_discovery_gap_preserved(self):
        """CPU time between initiator finish and child start is kept."""
        original = figure2_archive()
        result = reconstruct(original, by_asn)
        css_old = [e for e in original.entries if "style" in e.path][0]
        font_old = [e for e in original.entries if "arial" in e.path][0]
        gap_old = font_old.started_at - css_old.finished_at
        css_new = [e for e in result.reconstructed.entries
                   if "style" in e.path][0]
        font_new = [e for e in result.reconstructed.entries
                    if "arial" in e.path][0]
        gap_new = font_new.started_at - (
            css_new.started_at + css_new.timings.total()
        )
        assert gap_new == pytest.approx(gap_old, abs=1e-6)


class TestConcurrentDnsConservatism:
    def test_min_dns_removed_difference_retained(self):
        """§4.1: for concurrent coalescable requests, remove only the
        minimum DNS time; slower lookups keep the difference."""
        root = entry("www.example.com", "/", 0.0, asn=10, dns=20.0,
                     connect=30.0, ssl=30.0, initiator="")
        fast = entry("a.example.com", "/a.js", 100.0, asn=10,
                     dns=10.0, connect=30.0, ssl=30.0)
        slow = entry("b.example.com", "/b.js", 101.0, asn=10,
                     dns=25.0, connect=30.0, ssl=30.0)
        result = reconstruct(archive([root, fast, slow]), by_asn)
        rebuilt = {e.hostname: e for e in result.reconstructed.entries}
        assert rebuilt["a.example.com"].timings.dns == -1.0  # min removed
        assert rebuilt["b.example.com"].timings.dns == pytest.approx(15.0)

    def test_singleton_group_loses_all_dns(self):
        root = entry("www.example.com", "/", 0.0, asn=10, dns=20.0,
                     connect=30.0, ssl=30.0, initiator="")
        sub = entry("a.example.com", "/a.js", 500.0, asn=10, dns=12.0,
                    connect=30.0, ssl=30.0)
        result = reconstruct(archive([root, sub]), by_asn)
        rebuilt = {e.hostname: e for e in result.reconstructed.entries}
        assert rebuilt["a.example.com"].timings.dns == -1.0

    def test_drop_dns_false_retains_queries(self):
        """Firefox's conservative behaviour: query anyway (§6.8)."""
        root = entry("www.example.com", "/", 0.0, asn=10, dns=20.0,
                     connect=30.0, ssl=30.0, initiator="")
        sub = entry("a.example.com", "/a.js", 500.0, asn=10, dns=12.0,
                    connect=30.0, ssl=30.0)
        options = ReconstructionOptions(drop_dns=False)
        result = reconstruct(archive([root, sub]), by_asn, options)
        rebuilt = {e.hostname: e for e in result.reconstructed.entries}
        assert rebuilt["a.example.com"].timings.dns == 12.0
        assert rebuilt["a.example.com"].timings.connect == -1.0


class TestEligibility:
    def base_entries(self, **sub_kwargs):
        root = entry("www.example.com", "/", 0.0, asn=10, dns=20.0,
                     connect=30.0, ssl=30.0, initiator="")
        sub = entry("a.example.com", "/a.js", 500.0, asn=10, dns=12.0,
                    connect=30.0, ssl=30.0, **sub_kwargs)
        return archive([root, sub])

    def test_h1_entries_not_coalesced_by_default(self):
        result = reconstruct(self.base_entries(protocol="http/1.1"),
                             by_asn)
        assert result.coalesced_urls == []

    def test_h1_entries_coalesced_when_allowed(self):
        options = ReconstructionOptions(require_h2=False)
        result = reconstruct(self.base_entries(protocol="http/1.1"),
                             by_asn, options)
        assert result.coalesced_urls

    def test_fetch_modes_ignored_by_default(self):
        # The §4 model predates the §5.3 crossorigin discovery.
        result = reconstruct(
            self.base_entries(fetch_mode="cors-anonymous"), by_asn
        )
        assert result.coalesced_urls

    def test_fetch_modes_respected_when_asked(self):
        options = ReconstructionOptions(respect_fetch_modes=True)
        result = reconstruct(
            self.base_entries(fetch_mode="cors-anonymous"), by_asn,
            options,
        )
        assert result.coalesced_urls == []

    def test_insecure_entries_excluded(self):
        result = reconstruct(self.base_entries(secure=False), by_asn)
        assert result.coalesced_urls == []

    def test_failed_entries_excluded(self):
        result = reconstruct(self.base_entries(status=0), by_asn)
        assert result.coalesced_urls == []

    def test_empty_archive(self):
        empty = HarArchive(page=HarPage(url="u", hostname="h"))
        result = reconstruct(empty, by_asn)
        assert result.time_saved_ms == 0.0


class TestGroupers:
    def test_by_asn_and_ip_keys(self):
        e = entry("a.com", "/", 0.0, asn=7, ip="10.1.1.1")
        assert by_asn(e) == "asn:7"
        assert by_ip(e) == "ip:10.1.1.1"

    def test_missing_data_gives_none(self):
        e = entry("a.com", "/", 0.0, asn=0, ip="")
        assert by_asn(e) is None
        assert by_ip(e) is None

    def test_single_asn_grouper(self):
        grouper = by_single_asn(13335)
        cdn = entry("a.com", "/", 0.0, asn=13335)
        other = entry("b.com", "/", 0.0, asn=15169)
        assert grouper(cdn) == "asn:13335"
        assert grouper(other) is None

    def test_ip_grouping_narrower_than_asn(self):
        """Same AS, different IPs: ORIGIN coalesces, IP does not."""
        root = entry("www.example.com", "/", 0.0, asn=10, ip="10.0.0.1",
                     dns=20.0, connect=30.0, ssl=30.0, initiator="")
        sub = entry("a.example.com", "/a.js", 500.0, asn=10,
                    ip="10.0.0.9", dns=12.0, connect=30.0, ssl=30.0)
        arc = archive([root, sub])
        assert reconstruct(arc, by_asn).coalesced_urls
        assert not reconstruct(arc, by_ip).coalesced_urls
