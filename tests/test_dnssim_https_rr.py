"""Tests for HTTPS/SVCB (RFC 9460) records in the DNS simulator:
zone storage, authority lookup with CNAME chasing, and the resolver's
opt-in piggybacked ALPN delivery."""

import pytest

from repro.dnssim import AuthoritativeServer, CachingResolver, Zone
from repro.dnssim.records import RecordType
from repro.netsim import EventLoop


def make_authority():
    authority = AuthoritativeServer()
    zone = Zone("example.com")
    zone.add_a("www.example.com", ["10.0.0.1"], ttl=1000.0)
    zone.add_https("www.example.com", alpn=("h3", "h2"), ttl=1000.0)
    zone.add_a("plain.example.com", ["10.0.0.2"], ttl=1000.0)
    zone.add_cname("alias.example.com", "www.example.com")
    authority.add_zone(zone)
    return authority


class TestZoneRecords:
    def test_add_https_stores_alpn_csv(self):
        zone = Zone("a.com")
        zone.add_https("www.a.com", alpn=("h3", "h2"))
        records = zone.lookup("www.a.com", RecordType.HTTPS)
        assert len(records) == 1
        assert records[0].value == "h3,h2"

    def test_add_https_accepts_single_string(self):
        zone = Zone("a.com")
        zone.add_https("www.a.com", alpn="h3")
        assert zone.lookup("www.a.com", RecordType.HTTPS)[0].value == "h3"


class TestAuthorityQueryHttps:
    def test_alpn_tuple_for_recorded_name(self):
        assert make_authority().query_https("www.example.com") == \
            ("h3", "h2")

    def test_empty_for_name_without_record(self):
        assert make_authority().query_https("plain.example.com") == ()

    def test_empty_for_unknown_zone(self):
        assert make_authority().query_https("www.other.org") == ()

    def test_follows_cname_chain(self):
        # alias.example.com has no HTTPS record of its own; the
        # authority chases the CNAME to www and answers from there.
        assert make_authority().query_https("alias.example.com") == \
            ("h3", "h2")


class TestResolverHttps:
    def make_resolver(self, query_https=False):
        resolver = CachingResolver(EventLoop(), make_authority())
        resolver.query_https_records = query_https
        return resolver

    def resolve(self, resolver, name):
        answers = []
        resolver.resolve(name, answers.append)
        resolver._loop.run_until_idle()
        assert len(answers) == 1
        return answers[0]

    def test_disabled_by_default(self):
        resolver = self.make_resolver()
        assert resolver.query_https_records is False
        answer = self.resolve(resolver, "www.example.com")
        assert answer.https_alpn == ()

    def test_piggybacked_alpn_when_enabled(self):
        resolver = self.make_resolver(query_https=True)
        answer = self.resolve(resolver, "www.example.com")
        assert answer.https_alpn == ("h3", "h2")
        assert answer.addresses == ["10.0.0.1"]
        # Piggybacked on the A query: no second wire query.
        assert resolver.stats.plaintext_queries == 1

    def test_alpn_survives_cache(self):
        resolver = self.make_resolver(query_https=True)
        self.resolve(resolver, "www.example.com")
        cached = self.resolve(resolver, "www.example.com")
        assert cached.from_cache
        assert cached.https_alpn == ("h3", "h2")

    def test_joined_lookup_carries_alpn(self):
        resolver = self.make_resolver(query_https=True)
        answers = []
        resolver.resolve("www.example.com", answers.append)
        resolver.resolve("www.example.com", answers.append)
        resolver._loop.run_until_idle()
        assert [a.https_alpn for a in answers] == [("h3", "h2")] * 2
        assert answers[1].from_cache

    def test_empty_alpn_for_h2_only_name(self):
        resolver = self.make_resolver(query_https=True)
        answer = self.resolve(resolver, "plain.example.com")
        assert answer.https_alpn == ()
