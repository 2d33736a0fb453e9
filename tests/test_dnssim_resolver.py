"""Unit tests for answer policies, the authority, and the caching resolver."""

import numpy as np
import pytest

from repro.audit import ReasonCode
from repro.dnssim import (
    AuthoritativeServer,
    CachingResolver,
    FixedOrderPolicy,
    NxDomain,
    RandomRotationPolicy,
    RoundRobinPolicy,
    SingleAddressPolicy,
    Zone,
)
from repro.netsim import EventLoop
from repro.telemetry import Telemetry

ADDRESSES = ["10.0.0.1", "10.0.0.2", "10.0.0.3"]


def make_authority(policy=None):
    authority = AuthoritativeServer(answer_policy=policy)
    zone = Zone("example.com")
    zone.add_a("www.example.com", ADDRESSES, ttl=1000.0)
    zone.add_cname("alias.example.com", "www.example.com")
    authority.add_zone(zone)
    return authority


class TestAnswerPolicies:
    def test_fixed_order_preserves_zone_order(self):
        policy = FixedOrderPolicy()
        assert policy.order("x", ADDRESSES) == ADDRESSES

    def test_round_robin_rotates_per_query(self):
        policy = RoundRobinPolicy()
        first = policy.order("x", ADDRESSES)
        second = policy.order("x", ADDRESSES)
        assert first == ADDRESSES
        assert second == ADDRESSES[1:] + ADDRESSES[:1]

    def test_round_robin_is_per_name(self):
        policy = RoundRobinPolicy()
        policy.order("x", ADDRESSES)
        assert policy.order("y", ADDRESSES) == ADDRESSES

    def test_random_rotation_subsets(self):
        policy = RandomRotationPolicy(np.random.default_rng(3), answer_size=2)
        answer = policy.order("x", ADDRESSES)
        assert len(answer) == 2
        assert set(answer) <= set(ADDRESSES)

    def test_random_rotation_full_set_is_permutation(self):
        policy = RandomRotationPolicy(np.random.default_rng(3))
        answer = policy.order("x", ADDRESSES)
        assert sorted(answer) == sorted(ADDRESSES)

    def test_single_address_policy(self):
        assert SingleAddressPolicy().order("x", ADDRESSES) == ["10.0.0.1"]

    def test_policies_handle_empty_sets(self):
        for policy in (
            FixedOrderPolicy(),
            RoundRobinPolicy(),
            RandomRotationPolicy(np.random.default_rng(0)),
            SingleAddressPolicy(),
        ):
            assert policy.order("x", []) == []


class TestAuthoritativeServer:
    def test_query_returns_addresses_and_ttl(self):
        authority = make_authority()
        addresses, ttl, chain = authority.query("www.example.com")
        assert addresses == ADDRESSES
        assert ttl == 1000.0
        assert chain == ()

    def test_cname_chased_across_names(self):
        authority = make_authority()
        addresses, _, chain = authority.query("alias.example.com")
        assert addresses == ADDRESSES
        assert chain == ("www.example.com",)

    def test_nxdomain_for_unknown_name(self):
        authority = make_authority()
        with pytest.raises(NxDomain):
            authority.query("nope.example.com")
        with pytest.raises(NxDomain):
            authority.query("www.unknown-zone.org")

    def test_cname_loop_detected(self):
        authority = AuthoritativeServer()
        zone = Zone("loop.com")
        zone.add_cname("a.loop.com", "b.loop.com")
        zone.add_cname("b.loop.com", "a.loop.com")
        authority.add_zone(zone)
        with pytest.raises(NxDomain):
            authority.query("a.loop.com")

    def test_longest_suffix_zone_wins(self):
        authority = AuthoritativeServer()
        outer = Zone("example.com")
        outer.add_a("www.sub.example.com", "10.0.0.1")
        inner = Zone("sub.example.com")
        inner.add_a("www.sub.example.com", "10.9.9.9")
        authority.add_zone(outer)
        authority.add_zone(inner)
        addresses, _, _ = authority.query("www.sub.example.com")
        assert addresses == ["10.9.9.9"]


class TestCachingResolver:
    def make_resolver(self, **kwargs):
        loop = EventLoop()
        resolver = CachingResolver(loop, make_authority(), **kwargs)
        return loop, resolver

    def test_async_resolution_delivers_answer(self):
        loop, resolver = self.make_resolver()
        answers = []
        resolver.resolve("www.example.com", answers.append)
        loop.run_until_idle()
        assert len(answers) == 1
        assert answers[0].addresses == ADDRESSES
        assert not answers[0].from_cache

    def test_resolution_takes_latency(self):
        loop, resolver = self.make_resolver(median_latency_ms=25.0)
        times = []
        resolver.resolve("www.example.com", lambda a: times.append(loop.now()))
        loop.run_until_idle()
        assert times == [25.0]

    def test_latency_distribution_with_rng(self):
        loop, resolver = self.make_resolver(
            rng=np.random.default_rng(1), median_latency_ms=20.0
        )
        answers = []
        resolver.resolve("www.example.com", answers.append)
        loop.run_until_idle()
        assert answers[0].query_time_ms > 0
        assert answers[0].query_time_ms != 20.0  # jittered

    def test_cache_hit_is_instant_and_flagged(self):
        loop, resolver = self.make_resolver(median_latency_ms=25.0)
        answers = []
        resolver.resolve("www.example.com", answers.append)
        loop.run_until_idle()
        t_after_first = loop.now()
        resolver.resolve("www.example.com", answers.append)
        loop.run_until_idle()
        assert answers[1].from_cache
        assert answers[1].query_time_ms == 0.0
        assert loop.now() == t_after_first
        assert resolver.stats.cache_hits == 1

    def test_cache_expires_after_ttl(self):
        loop, resolver = self.make_resolver(median_latency_ms=10.0)
        answers = []
        resolver.resolve("www.example.com", answers.append)
        loop.run_until_idle()
        loop.run_until(loop.now() + 2000.0)  # past the 1000ms TTL
        resolver.resolve("www.example.com", answers.append)
        loop.run_until_idle()
        assert not answers[1].from_cache

    def test_flush_cache_forces_requery(self):
        loop, resolver = self.make_resolver()
        answers = []
        resolver.resolve("www.example.com", answers.append)
        loop.run_until_idle()
        resolver.flush_cache()
        resolver.resolve("www.example.com", answers.append)
        loop.run_until_idle()
        assert not answers[1].from_cache

    def test_nxdomain_goes_to_error_handler(self):
        loop, resolver = self.make_resolver()
        errors = []
        resolver.resolve("missing.example.com", lambda a: None, errors.append)
        loop.run_until_idle()
        assert len(errors) == 1
        assert isinstance(errors[0], NxDomain)
        assert resolver.stats.nxdomain == 1

    def test_nxdomain_without_handler_gives_empty_answer(self):
        loop, resolver = self.make_resolver()
        answers = []
        resolver.resolve("missing.example.com", answers.append)
        loop.run_until_idle()
        assert answers[0].empty

    def test_plaintext_accounting(self):
        loop, resolver = self.make_resolver()
        resolver.resolve("www.example.com", lambda a: None)
        loop.run_until_idle()
        assert resolver.stats.plaintext_queries == 1

    def test_cache_hits_do_not_count_as_transport_queries(self):
        loop, resolver = self.make_resolver()
        resolver.resolve("www.example.com", lambda a: None)
        loop.run_until_idle()
        resolver.resolve("www.example.com", lambda a: None)
        loop.run_until_idle()
        assert resolver.stats.plaintext_queries == 1
        assert resolver.stats.queries == 2

    def test_alias_resolves_through_its_cname_chain(self):
        loop, resolver = self.make_resolver()
        answers = []
        resolver.resolve("alias.example.com", answers.append)
        loop.run_until_idle()
        assert answers[0].addresses == ADDRESSES
        assert answers[0].cname_chain == ("www.example.com",)

    def test_names_are_normalized_before_the_cache(self):
        loop, resolver = self.make_resolver()
        answers = []
        resolver.resolve("WWW.Example.COM.", answers.append)
        loop.run_until_idle()
        resolver.resolve("www.example.com", answers.append)
        loop.run_until_idle()
        assert answers[0].name == "www.example.com"
        assert answers[1].from_cache

    def test_concurrent_lookups_join_one_wire_query(self):
        loop, resolver = self.make_resolver(median_latency_ms=25.0)
        answers = []
        resolver.resolve("www.example.com", answers.append)
        resolver.resolve("www.example.com", answers.append)
        loop.run_until_idle()
        first, joined = answers
        assert resolver.stats.queries == 2
        assert resolver.stats.plaintext_queries == 1
        assert resolver.stats.cache_hits == 0
        assert not first.from_cache and first.query_time_ms == 25.0
        assert joined.from_cache and joined.query_time_ms == 0.0
        assert joined.addresses == first.addresses
        assert joined.addresses is not first.addresses

    def test_joiner_of_a_failed_lookup_gets_an_empty_answer(self):
        loop, resolver = self.make_resolver()
        errors, answers = [], []
        resolver.resolve("missing.example.com", answers.append,
                         errors.append)
        resolver.resolve("missing.example.com", answers.append)
        loop.run_until_idle()
        assert len(errors) == 1 and isinstance(errors[0], NxDomain)
        assert len(answers) == 1 and answers[0].empty
        assert resolver.stats.nxdomain == 1

    def test_audit_records_how_each_query_was_answered(self):
        loop = EventLoop()
        resolver = CachingResolver(loop, make_authority(), telemetry=(
            Telemetry(loop.now, trace=False, audit=True)))
        resolver.resolve("www.example.com", lambda a: None)
        resolver.resolve("www.example.com", lambda a: None)
        loop.run_until_idle()
        resolver.resolve("www.example.com", lambda a: None)
        resolver.resolve("missing.example.com", lambda a: None)
        loop.run_until_idle()
        assert [event.code for event in resolver.audit.events] == [
            ReasonCode.DNS_WIRE_QUERY,
            ReasonCode.DNS_JOINED_IN_FLIGHT,
            ReasonCode.DNS_CACHE_HIT,
            ReasonCode.DNS_WIRE_QUERY,
            ReasonCode.DNS_NXDOMAIN,
        ]

    def test_stale_answer_only_past_the_ttl_and_never_evicts(self):
        loop, resolver = self.make_resolver(median_latency_ms=10.0)
        assert resolver.stale_answer("www.example.com") is None
        resolver.resolve("www.example.com", lambda a: None)
        loop.run_until_idle()
        assert resolver.stale_answer("www.example.com") is None  # fresh
        loop.run_until(loop.now() + 2000.0)  # past the 1000ms TTL
        queries = resolver.stats.queries
        for _ in range(2):
            stale = resolver.stale_answer("WWW.example.com")
            assert stale.addresses == ADDRESSES
            assert stale.from_cache and stale.ttl == 0.0
        assert resolver.stats.queries == queries
