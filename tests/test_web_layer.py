"""Tests for content types, the AS database, pages, and HAR archives."""

import dataclasses
import json

import pytest
from hypothesis import given, strategies as st

from repro.web import (
    AsDatabase,
    ContentType,
    CONTENT_TYPE_SIZES,
    FetchMode,
    HarArchive,
    HarEntry,
    HarPage,
    HarTimings,
    Subresource,
    WebPage,
)


class TestContentType:
    def test_every_type_has_a_size(self):
        for content_type in ContentType:
            assert CONTENT_TYPE_SIZES[content_type] > 0

    def test_script_classification(self):
        assert ContentType.APPLICATION_JAVASCRIPT.is_script
        assert ContentType.TEXT_JAVASCRIPT.is_script
        assert not ContentType.IMAGE_PNG.is_script

    def test_render_blocking(self):
        assert ContentType.TEXT_CSS.is_render_blocking
        assert ContentType.APPLICATION_JAVASCRIPT.is_render_blocking
        assert not ContentType.IMAGE_JPEG.is_render_blocking

    def test_discovery_capability(self):
        assert ContentType.TEXT_HTML.can_discover_children
        assert ContentType.TEXT_CSS.can_discover_children
        assert not ContentType.FONT_WOFF2.can_discover_children


class TestAsDatabase:
    def test_register_and_lookup(self):
        db = AsDatabase()
        db.register("10.1.0.0/16", 13335, "Cloudflare")
        assert db.asn_of("10.1.2.3") == 13335
        assert db.lookup("10.1.2.3").org == "Cloudflare"

    def test_longest_prefix_wins(self):
        db = AsDatabase()
        db.register("10.0.0.0/8", 15169, "Google")
        db.register("10.1.0.0/16", 13335, "Cloudflare")
        db.register("10.1.2.0/24", 16509, "Amazon 02")
        assert db.asn_of("10.9.9.9") == 15169
        assert db.asn_of("10.1.9.9") == 13335
        assert db.asn_of("10.1.2.9") == 16509

    def test_unregistered_space_returns_none(self):
        db = AsDatabase()
        assert db.lookup("192.168.1.1") is None
        assert db.asn_of("192.168.1.1") is None

    def test_same_asn_multiple_blocks(self):
        db = AsDatabase()
        db.register("10.1.0.0/24", 13335, "Cloudflare")
        db.register("10.2.0.0/24", 13335, "Cloudflare")
        assert db.asn_of("10.1.0.5") == db.asn_of("10.2.0.5") == 13335
        assert len(db) == 1

    def test_conflicting_org_rejected(self):
        db = AsDatabase()
        db.register("10.1.0.0/24", 13335, "Cloudflare")
        with pytest.raises(ValueError):
            db.register("10.2.0.0/24", 13335, "NotCloudflare")

    def test_bad_cidr_rejected(self):
        db = AsDatabase()
        with pytest.raises(ValueError):
            db.register("10.1.0.0", 13335, "Cloudflare")
        with pytest.raises(ValueError):
            db.register("10.1.0.0/20", 13335, "Cloudflare")


def make_page():
    return WebPage(
        hostname="www.example.com",
        resources=[
            Subresource("static.example.com", "/js/app.js",
                        ContentType.APPLICATION_JAVASCRIPT, 20_000),
            Subresource("static.example.com", "/css/style.css",
                        ContentType.TEXT_CSS, 14_000),
            Subresource("fonts.cdnhost.com", "/arial.woff",
                        ContentType.FONT_WOFF2, 28_000,
                        parent="/css/style.css"),
            Subresource("tracker.com", "/t.js",
                        ContentType.TEXT_JAVASCRIPT, 2_000,
                        fetch_mode=FetchMode.SCRIPT_FETCH),
        ],
    )


class TestWebPage:
    def test_hostnames_root_first(self):
        page = make_page()
        assert page.hostnames() == [
            "www.example.com", "static.example.com", "fonts.cdnhost.com",
            "tracker.com",
        ]

    def test_children_of_root(self):
        page = make_page()
        root_children = {r.path for r in page.children_of(None)}
        assert root_children == {"/js/app.js", "/css/style.css", "/t.js"}
        assert page.children_of("/") == page.children_of(None)

    def test_children_of_css(self):
        page = make_page()
        assert [r.path for r in page.children_of("/css/style.css")] == [
            "/arial.woff"
        ]

    def test_children_of_matches_a_scan_of_resources(self):
        """The parent -> children index answers what the scan it
        replaced did: same resources, ``resources`` order, a fresh list
        per call, and nothing for a path with no children."""
        page = make_page()
        for parent in (None, "/", *(r.path for r in page.resources),
                       "/nowhere"):
            wanted = None if parent in (None, page.root_path) else parent
            scanned = [
                r for r in page.resources
                if (None if r.parent in (None, page.root_path)
                    else r.parent) == wanted
            ]
            found = page.children_of(parent)
            assert [id(r) for r in found] == [id(r) for r in scanned]
            assert found is not page.children_of(parent)

    def test_unknown_parent_rejected(self):
        with pytest.raises(ValueError):
            WebPage(
                hostname="www.example.com",
                resources=[
                    Subresource("a.com", "/x.js",
                                ContentType.TEXT_JAVASCRIPT, 100,
                                parent="/missing.css"),
                ],
            )

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            WebPage(
                hostname="www.example.com",
                resources=[
                    Subresource("a.com", "/a.css", ContentType.TEXT_CSS,
                                100, parent="/b.css"),
                    Subresource("a.com", "/b.css", ContentType.TEXT_CSS,
                                100, parent="/a.css"),
                ],
            )

    def test_bad_resource_values_rejected(self):
        with pytest.raises(ValueError):
            Subresource("a.com", "no-slash", ContentType.TEXT_CSS, 100)
        with pytest.raises(ValueError):
            Subresource("a.com", "/x", ContentType.TEXT_CSS, -1)
        with pytest.raises(ValueError):
            Subresource("a.com", "/x", ContentType.TEXT_CSS, 1,
                        discovery_delay_ms=-1)


class TestHarTimings:
    def test_total_skips_not_applicable(self):
        timings = HarTimings(blocked=5.0, dns=-1.0, connect=-1.0, ssl=-1.0,
                             send=1.0, wait=10.0, receive=4.0)
        assert timings.total() == 20.0

    def test_connection_flags(self):
        fresh = HarTimings(dns=12.0, connect=20.0, ssl=22.0)
        reused = HarTimings()
        assert fresh.used_dns and fresh.used_new_connection
        assert not reused.used_dns and not reused.used_new_connection

    @given(
        st.floats(min_value=0, max_value=1e4),
        st.floats(min_value=0, max_value=1e4),
    )
    def test_total_is_monotone_in_phases(self, wait, receive):
        base = HarTimings(wait=wait).total()
        more = HarTimings(wait=wait, receive=receive).total()
        assert more >= base


def first_seen_asns(archive):
    """The page's distinct non-zero ASNs, in entry order."""
    return list(dict.fromkeys(
        entry.asn for entry in archive.entries if entry.asn))


class TestHarArchive:
    def make_archive(self):
        page = HarPage(url="https://www.example.com/",
                       hostname="www.example.com", rank=42,
                       on_content_load=800.0, on_load=1500.0)
        entries = [
            HarEntry(
                url="https://www.example.com/",
                hostname="www.example.com", path="/", started_at=0.0,
                timings=HarTimings(dns=15.0, connect=20.0, ssl=20.0,
                                   wait=30.0, receive=50.0),
                server_ip="10.0.0.1", asn=13335, as_org="Cloudflare",
                dns_addresses=["10.0.0.1"],
                certificate_san=["www.example.com"],
            ),
            HarEntry(
                url="https://static.example.com/app.js",
                hostname="static.example.com", path="/app.js",
                started_at=120.0,
                timings=HarTimings(dns=12.0, connect=20.0, ssl=20.0,
                                   wait=25.0, receive=30.0),
                server_ip="10.0.0.2", asn=13335, as_org="Cloudflare",
            ),
            HarEntry(
                url="https://www.example.com/logo.png",
                hostname="www.example.com", path="/logo.png",
                started_at=130.0,
                timings=HarTimings(wait=20.0, receive=25.0),
                server_ip="10.0.0.1", asn=13335, as_org="Cloudflare",
                coalesced=True,
            ),
        ]
        return HarArchive(page=page, entries=entries)

    def test_counts(self):
        archive = self.make_archive()
        assert len(archive.entries) == 3
        assert archive.dns_query_count() == 2
        assert archive.tls_connection_count() == 2
        assert archive.new_connection_count() == 2
        assert first_seen_asns(archive) == [13335]
        assert archive.page_load_time == 1500.0

    def test_entry_finish_times(self):
        archive = self.make_archive()
        first = archive.entries[0]
        assert first.finished_at == pytest.approx(135.0)
        assert first.new_tls_connection

    def test_json_roundtrip(self):
        archive = self.make_archive()
        restored = HarArchive.from_json(archive.to_json())
        assert restored.page == archive.page
        assert restored.entries == archive.entries

    def test_entries_by_start_sorts(self):
        archive = self.make_archive()
        archive.entries.reverse()
        ordered = archive.entries_by_start()
        assert [e.started_at for e in ordered] == [0.0, 120.0, 130.0]


class TestHarDecode:
    """``HarArchive.from_json`` builds records positionally and shares
    strings through a memo; neither may move a re-encoded byte."""

    #: ``1``, ``1.0`` and ``True`` (and ``0.0`` / ``-0.0``) are equal
    #: dict keys: a memo over every value would swap one for another.
    LINE = (
        '{"page": {"url": "https://www.example.com/", "hostname": '
        '"www.example.com", "rank": 1, "on_content_load": 1.0, '
        '"on_load": 0.0, "success": true, "failure_reason": "", '
        '"extra_tls_connections": 1}, "entries": [{"url": '
        '"https://www.example.com/", "hostname": "www.example.com", '
        '"path": "/", "started_at": 0.0, "timings": {"blocked": 0.0, '
        '"dns": -1.0, "connect": -1.0, "ssl": -1.0, "send": 1.0, '
        '"wait": -0.0, "receive": 0.0}, "status": 200, "server_ip": '
        '"10.0.0.1", "protocol": "h2", "content_type": "text/html", '
        '"transfer_size": 1, "dns_addresses": ["10.0.0.1"], '
        '"certificate_san": ["www.example.com"], "certificate_issuer": '
        '"R3", "asn": 1, "as_org": "www.example.com", "secure": true, '
        '"fetch_mode": "normal", "coalesced": true, "initiator_path": '
        '""}]}'
    )

    def test_equal_values_of_other_types_re_encode_unchanged(self):
        memo = {}
        archive = HarArchive.from_json(self.LINE, memo)
        assert archive.to_json() == self.LINE
        timings = archive.entries[0].timings
        assert str(timings.wait) == "-0.0" and type(timings.send) is float
        assert all(type(key) is str for key in memo)

    def test_equal_strings_are_one_object(self):
        memo = {}
        first = HarArchive.from_json(self.LINE, memo)
        second = HarArchive.from_json(self.LINE, memo)
        (a,), (b,) = first.entries, second.entries
        assert a.hostname is b.hostname is first.page.hostname
        assert a.as_org is a.hostname is a.certificate_san[0]
        assert a.dns_addresses[0] is a.server_ip is b.server_ip
        # Lists stay one per entry, and the url is not shared.
        assert a.dns_addresses is not b.dns_addresses
        assert a.url is not b.url
        alone = HarArchive.from_json(self.LINE)
        assert alone.page.hostname is not first.page.hostname

    def test_a_missing_defaulted_field_takes_its_default(self):
        doc = json.loads(self.LINE)
        del doc["entries"][0]["initiator_path"]
        del doc["entries"][0]["timings"]["blocked"]
        del doc["page"]["rank"]
        archive = HarArchive.from_json(json.dumps(doc))
        assert archive.entries[0].initiator_path == ""
        assert archive.entries[0].timings.blocked == 0.0
        assert archive.page.rank == 0

    @pytest.mark.parametrize("where", ["page", "entry", "timings"])
    def test_an_unknown_key_still_raises(self, where):
        doc = json.loads(self.LINE)
        record = {"page": doc["page"], "entry": doc["entries"][0],
                  "timings": doc["entries"][0]["timings"]}[where]
        record["surprise"] = 1
        with pytest.raises(TypeError, match="surprise"):
            HarArchive.from_json(json.dumps(doc))

    def test_an_unknown_key_in_place_of_a_known_one_raises(self):
        doc = json.loads(self.LINE)
        entry = doc["entries"][0]
        entry["surprise"] = entry.pop("initiator_path")
        with pytest.raises(TypeError, match="surprise"):
            HarArchive.from_json(json.dumps(doc))


class TestHarEncodeAgainstAsdict:
    """``HarArchive.to_dict`` builds its dicts by hand;
    ``dataclasses.asdict`` is the reference it must match to the byte."""

    @staticmethod
    def reference_json(archive):
        return json.dumps({
            "page": dataclasses.asdict(archive.page),
            "entries": [dataclasses.asdict(e) for e in archive.entries],
        })

    @pytest.fixture(scope="class")
    def shard_archives(self):
        from repro.dataset.generator import DatasetConfig
        from repro.dataset.crawler import CrawlParams
        from repro.dataset.shard import crawl_shard, plan_shards, plan_slices

        spec = plan_shards(DatasetConfig(site_count=12, seed=41), 1)[0]
        return crawl_shard(
            spec, next(plan_slices([spec])), CrawlParams()
        ).payload.archives

    def test_every_archive_of_a_real_shard_encodes_identically(
            self, shard_archives):
        assert any(not a.page.success for a in shard_archives)
        assert any(
            e.dns_addresses and e.certificate_san
            for a in shard_archives for e in a.entries
        )
        for archive in shard_archives:
            assert archive.to_json() == self.reference_json(archive)
            assert HarArchive.from_json(archive.to_json()) == archive

    def test_records_are_slotted_and_survive_the_pickle_hop(
            self, shard_archives):
        import pickle

        archive = next(a for a in shard_archives if a.entries)
        entry = archive.entries[0]
        for record in (archive.page, entry, entry.timings):
            assert not hasattr(record, "__dict__")
        clone = pickle.loads(pickle.dumps(archive))
        assert clone == archive and clone.to_json() == archive.to_json()

    def test_to_dict_shares_no_list_with_the_archive(self, shard_archives):
        archive = next(a for a in shard_archives if a.entries)
        before = archive.to_json()
        doc = archive.to_dict()
        doc["page"]["url"] = "mutated"
        for raw in doc["entries"]:
            raw["dns_addresses"].append("203.0.113.9")
            raw["certificate_san"].append("mutated.example")
            raw["timings"]["wait"] = -5.0
        doc["entries"].clear()
        assert archive.to_json() == before
