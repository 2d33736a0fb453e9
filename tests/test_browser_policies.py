"""Unit tests for the coalescing policies (paper §2.3 behaviours)."""

import pytest

from repro.browser import (
    ChromiumPolicy,
    ConnectionFacts,
    FirefoxPolicy,
    IdealOriginPolicy,
    NoCoalescingPolicy,
)
from tests.test_browser_pool import FakeSession


def facts(san=(), origins=(), connected="10.0.0.1",
          available=("10.0.0.1",), multiplex=True):
    return ConnectionFacts(
        session=FakeSession(san=san, origins=origins, multiplex=multiplex),
        sni="www.example.com",
        connected_ip=connected,
        available_set=frozenset(available),
    )


def can_reuse(policy, facts, hostname, dns_addresses):
    """What the pool acts on: the policy's reason is a hit."""
    return policy.explain(facts, hostname, dns_addresses).is_hit


SAN = ("www.example.com", "static.example.com")


class TestChromiumPolicy:
    def test_reuses_on_connected_ip_match(self):
        policy = ChromiumPolicy()
        assert can_reuse(
            policy, facts(san=SAN), "static.example.com",
            ["10.0.0.1", "10.0.0.9"],
        )

    def test_no_reuse_without_cert_coverage(self):
        policy = ChromiumPolicy()
        assert not can_reuse(
            policy, facts(san=("www.example.com",)), "static.example.com",
            ["10.0.0.1"],
        )

    def test_transitivity_lost(self):
        """§2.3's worked example: connection made to IP_A from {A,B};
        subresource answer {B,C} shares B with the available set but
        not A -- Chromium opens a new connection."""
        policy = ChromiumPolicy()
        connection = facts(
            san=SAN, connected="10.0.0.1",
            available=("10.0.0.1", "10.0.0.2"),
        )
        assert not can_reuse(
            policy, connection, "static.example.com", ["10.0.0.2", "10.0.0.3"]
        )

    def test_ignores_origin_set(self):
        policy = ChromiumPolicy()
        connection = facts(san=SAN,
                           origins=("static.example.com",))
        assert not can_reuse(
            policy, connection, "static.example.com", ["10.9.9.9"]
        )

    def test_requires_dns(self):
        assert ChromiumPolicy().requires_dns_before_reuse


class TestFirefoxPolicy:
    def test_transitive_reuse_on_available_set_overlap(self):
        policy = FirefoxPolicy(origin_frames=False)
        connection = facts(
            san=SAN, connected="10.0.0.1",
            available=("10.0.0.1", "10.0.0.2"),
        )
        assert can_reuse(
            policy, connection, "static.example.com", ["10.0.0.2", "10.0.0.3"]
        )

    def test_no_reuse_without_overlap_or_origin(self):
        policy = FirefoxPolicy(origin_frames=False)
        assert not can_reuse(
            policy, facts(san=SAN), "static.example.com", ["10.0.0.9"]
        )

    def test_origin_frame_reuse_without_ip_overlap(self):
        policy = FirefoxPolicy(origin_frames=True)
        connection = facts(san=SAN, origins=("static.example.com",))
        assert can_reuse(
            policy, connection, "static.example.com", ["10.9.9.9"]
        )

    def test_origin_disabled_falls_back_to_ip(self):
        policy = FirefoxPolicy(origin_frames=False)
        connection = facts(san=SAN, origins=("static.example.com",))
        assert not can_reuse(
            policy, connection, "static.example.com", ["10.9.9.9"]
        )

    def test_origin_still_requires_cert_coverage(self):
        policy = FirefoxPolicy(origin_frames=True)
        connection = facts(
            san=("www.example.com",), origins=("static.example.com",)
        )
        assert not can_reuse(
            policy, connection, "static.example.com", ["10.0.0.1"]
        )

    def test_firefox_still_queries_dns(self):
        # §6.8: Firefox conservatively queries DNS even with ORIGIN.
        assert FirefoxPolicy(origin_frames=True).requires_dns_before_reuse


class TestIdealOriginPolicy:
    def test_reuses_on_origin_plus_san_alone(self):
        policy = IdealOriginPolicy()
        connection = facts(san=SAN, origins=("static.example.com",))
        assert can_reuse(policy, connection, "static.example.com", [])

    def test_skips_dns(self):
        assert not IdealOriginPolicy().requires_dns_before_reuse

    def test_no_reuse_without_origin_membership(self):
        policy = IdealOriginPolicy()
        assert not can_reuse(policy, facts(san=SAN),
                             "static.example.com", [])


class TestSharedConstraints:
    @pytest.mark.parametrize(
        "policy",
        [ChromiumPolicy(), FirefoxPolicy(), IdealOriginPolicy()],
    )
    def test_h1_connections_never_coalesce(self, policy):
        connection = facts(san=SAN, origins=("static.example.com",),
                           multiplex=False)
        assert not can_reuse(
            policy, connection, "static.example.com", ["10.0.0.1"]
        )

    def test_no_coalescing_policy(self):
        policy = NoCoalescingPolicy()
        connection = facts(san=SAN, origins=("static.example.com",))
        assert not can_reuse(
            policy, connection, "static.example.com", ["10.0.0.1"]
        )
