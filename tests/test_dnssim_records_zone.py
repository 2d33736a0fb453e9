"""Unit tests for DNS records and zones."""

import pytest

from repro.dnssim import RecordType, ResourceRecord, Zone, ZoneError
from repro.dnssim.records import normalize_name


class TestNormalizeName:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Example.COM", "example.com"),
            ("example.com.", "example.com"),
            ("  www.example.com ", "www.example.com"),
        ],
    )
    def test_normalization(self, raw, expected):
        assert normalize_name(raw) == expected


class TestResourceRecord:
    def test_name_is_normalized(self):
        record = ResourceRecord("WWW.Example.com.", RecordType.A, "10.0.0.1")
        assert record.name == "www.example.com"

    def test_cname_target_is_normalized(self):
        record = ResourceRecord("a.example.com", RecordType.CNAME, "B.Example.com")
        assert record.value == "b.example.com"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            ResourceRecord("", RecordType.A, "10.0.0.1")

    def test_non_positive_ttl_rejected(self):
        with pytest.raises(ValueError):
            ResourceRecord("a.example.com", RecordType.A, "10.0.0.1", ttl=0)


class TestZone:
    def test_covers_origin_and_subdomains(self):
        zone = Zone("example.com")
        assert zone.covers("example.com")
        assert zone.covers("www.example.com")
        assert zone.covers("a.b.example.com")
        assert not zone.covers("example.org")
        assert not zone.covers("badexample.com")

    def test_rejects_foreign_records(self):
        zone = Zone("example.com")
        with pytest.raises(ZoneError):
            zone.add(ResourceRecord("www.other.com", RecordType.A, "10.0.0.1"))

    def test_lookup_exact_match(self):
        zone = Zone("example.com")
        zone.add_a("www.example.com", ["10.0.0.1", "10.0.0.2"])
        records = zone.lookup("www.example.com", RecordType.A)
        assert [r.value for r in records] == ["10.0.0.1", "10.0.0.2"]

    def test_lookup_is_case_insensitive(self):
        zone = Zone("example.com")
        zone.add_a("www.example.com", "10.0.0.1")
        assert zone.lookup("WWW.EXAMPLE.COM", RecordType.A)

    def test_wildcard_matches_single_label(self):
        zone = Zone("example.com")
        zone.add_a("*.example.com", "10.0.0.9")
        records = zone.lookup("anything.example.com", RecordType.A)
        assert records and records[0].value == "10.0.0.9"
        # Synthesized record carries the queried name.
        assert records[0].name == "anything.example.com"

    def test_wildcard_does_not_match_deeper_names(self):
        zone = Zone("example.com")
        zone.add_a("*.example.com", "10.0.0.9")
        assert zone.lookup("a.b.example.com", RecordType.A) == []

    def test_exact_beats_wildcard(self):
        zone = Zone("example.com")
        zone.add_a("*.example.com", "10.0.0.9")
        zone.add_a("www.example.com", "10.0.0.1")
        records = zone.lookup("www.example.com", RecordType.A)
        assert [r.value for r in records] == ["10.0.0.1"]

    def test_cname_returned_for_a_lookup(self):
        zone = Zone("example.com")
        zone.add_cname("alias.example.com", "real.example.com")
        records = zone.lookup("alias.example.com", RecordType.A)
        assert records[0].rtype is RecordType.CNAME
        assert records[0].value == "real.example.com"

    def test_cname_exclusivity_enforced(self):
        zone = Zone("example.com")
        zone.add_a("www.example.com", "10.0.0.1")
        with pytest.raises(ZoneError):
            zone.add_cname("www.example.com", "other.example.com")

    def test_a_after_cname_rejected(self):
        zone = Zone("example.com")
        zone.add_cname("www.example.com", "other.example.com")
        with pytest.raises(ZoneError):
            zone.add_a("www.example.com", "10.0.0.1")

    def test_remove_records(self):
        zone = Zone("example.com")
        zone.add_a("www.example.com", ["10.0.0.1", "10.0.0.2"])
        assert zone.remove("www.example.com", RecordType.A) == 2
        assert zone.lookup("www.example.com", RecordType.A) == []

    def test_record_count(self):
        zone = Zone("example.com")
        zone.add_a("a.example.com", "10.0.0.1")
        zone.add_a("b.example.com", ["10.0.0.2", "10.0.0.3"])
        assert zone.record_count() == 3

    def test_empty_origin_rejected(self):
        with pytest.raises(ZoneError):
            Zone("")
