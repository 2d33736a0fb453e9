"""Unit tests for the connection pool's lookup logic."""

import pytest

from repro.audit import ReasonCode
from repro.browser.policy import (
    ChromiumPolicy,
    ConnectionFacts,
    FirefoxPolicy,
    IdealOriginPolicy,
    NoCoalescingPolicy,
)
from repro.browser.pool import ConnectionPool, MAX_H1_CONNECTIONS_PER_HOST
from repro.telemetry import Telemetry
from repro.transport.base import DEFAULT_MAX_STREAMS, SessionCapabilities

#: The capability records an h2 and an HTTP/1.1 session declare.
H2_CAPABILITIES = SessionCapabilities(
    supports_origin_frame=True, max_streams=DEFAULT_MAX_STREAMS,
)
H1_CAPABILITIES = SessionCapabilities(max_streams=1)


class FakeSession:
    """Just enough session surface for pool and policy decisions; the
    audit and policy tests share it."""

    def __init__(self, multiplex=True, busy=False, san=(), origins=()):
        self.capabilities = H2_CAPABILITIES if multiplex \
            else H1_CAPABILITIES
        self.h1_busy = busy
        self.closed = False
        self.failed = None
        self._san = set(san)
        self._origins = set(origins)

    def close(self):
        self.closed = True

    def certificate_covers(self, hostname):
        return hostname in self._san

    def origin_set_covers(self, hostname):
        return hostname in self._origins


def scan_coalescable(pool, hostname, dns_addresses, anonymous=False):
    """The pool's cross-host lookup before it was indexed: a full scan
    in registry order.  The oracle for
    :meth:`ConnectionPool.find_coalescable`, which must pick the same
    connection."""
    if anonymous:
        return None
    for facts in list(pool.connections):
        if not pool._usable(facts) or facts.anonymous_partition:
            continue
        if facts.sni == hostname:
            continue
        if pool.policy.explain(facts, hostname, dns_addresses).is_hit:
            return facts
    return None


def open_count(pool):
    """Prune every dead connection, then count what is left: the
    registry must end up holding exactly the live entries."""
    pool._prune([
        facts for facts in pool.connections
        if not pool._usable(facts)
    ])
    return len(pool.connections)


def make_pool(policy=None):
    return ConnectionPool(
        policy=policy or FirefoxPolicy(origin_frames=True),
    )


def add(pool, sni, **kwargs):
    anonymous = kwargs.pop("anonymous", False)
    available = kwargs.pop("available", ("10.0.0.1",))
    facts = ConnectionFacts(
        session=FakeSession(**kwargs),
        sni=sni,
        connected_ip=list(available)[0],
        available_set=frozenset(available),
        anonymous_partition=anonymous,
    )
    pool.connections.append(facts)
    return facts


class TestFindSameHost:
    def test_finds_h2_session(self):
        pool = make_pool()
        facts = add(pool, "www.a.com")
        outcome = pool.find_same_host("www.a.com")
        assert outcome.facts is facts
        assert outcome.reason is ReasonCode.POOL_HIT_SAME_HOST

    def test_ignores_other_hosts(self):
        pool = make_pool()
        add(pool, "www.a.com")
        outcome = pool.find_same_host("www.b.com")
        assert not outcome
        assert outcome.facts is None
        assert outcome.reason is ReasonCode.MISS_NO_CONNECTION

    def test_ignores_closed_sessions(self):
        pool = make_pool()
        facts = add(pool, "www.a.com")
        facts.session.closed = True
        outcome = pool.find_same_host("www.a.com")
        assert not outcome
        assert outcome.reason is ReasonCode.MISS_CLOSED_STALE

    def test_anonymous_partition_isolated(self):
        pool = make_pool()
        add(pool, "www.a.com", anonymous=False)
        outcome = pool.find_same_host("www.a.com", anonymous=True)
        assert not outcome
        assert outcome.reason is ReasonCode.MISS_ANONYMOUS_PARTITION

    def test_busy_h1_skipped_until_cap(self):
        pool = make_pool()
        add(pool, "www.a.com", multiplex=False, busy=True)
        # One busy H1 connection: the caller should open another.
        outcome = pool.find_same_host("www.a.com")
        assert not outcome
        assert outcome.reason is ReasonCode.MISS_CANNOT_MULTIPLEX

    def test_idle_h1_preferred(self):
        pool = make_pool()
        add(pool, "www.a.com", multiplex=False, busy=True)
        idle = add(pool, "www.a.com", multiplex=False, busy=False)
        outcome = pool.find_same_host("www.a.com")
        assert outcome.facts is idle
        assert outcome.reason is ReasonCode.POOL_HIT_H1_IDLE

    def test_h1_cap_forces_reuse(self):
        pool = make_pool()
        for _ in range(MAX_H1_CONNECTIONS_PER_HOST):
            add(pool, "www.a.com", multiplex=False, busy=True)
        # All busy and at the cap: queue on an existing connection.
        outcome = pool.find_same_host("www.a.com")
        assert outcome.facts is not None
        assert outcome.reason is ReasonCode.POOL_HIT_H1_CAP


class TestFindCoalescable:
    def test_policy_match(self):
        pool = make_pool()
        facts = add(pool, "www.a.com",
                    san=("www.a.com", "cdn.a.com"),
                    origins=("cdn.a.com",))
        outcome = pool.find_coalescable("cdn.a.com", ["10.9.9.9"])
        assert outcome.facts is facts
        assert outcome.reason is ReasonCode.POOL_HIT_ORIGIN_FRAME

    def test_same_host_excluded(self):
        pool = make_pool()
        add(pool, "www.a.com", san=("www.a.com",))
        assert not pool.find_coalescable("www.a.com", ["10.0.0.1"])

    def test_anonymous_requests_never_coalesce(self):
        pool = make_pool()
        add(pool, "www.a.com", san=("www.a.com", "cdn.a.com"),
            origins=("cdn.a.com",))
        outcome = pool.find_coalescable("cdn.a.com", ["10.0.0.1"],
                                        anonymous=True)
        assert not outcome
        assert outcome.reason is ReasonCode.MISS_ANONYMOUS_PARTITION

    def test_anonymous_connections_never_donate(self):
        pool = make_pool()
        add(pool, "www.a.com", san=("www.a.com", "cdn.a.com"),
            origins=("cdn.a.com",), anonymous=True)
        assert not pool.find_coalescable("cdn.a.com", ["10.0.0.1"])

    def test_ip_overlap_path(self):
        pool = make_pool()
        facts = add(pool, "www.a.com",
                    san=("www.a.com", "shard.a.com"),
                    available=("10.0.0.1", "10.0.0.2"))
        outcome = pool.find_coalescable("shard.a.com",
                                        ["10.0.0.2", "10.0.0.3"])
        assert outcome.facts is facts
        assert outcome.reason is ReasonCode.POOL_HIT_IP_SAN


class TestIndexes:
    """The sni/IP indexes answer lookups without full scans and stay
    consistent under append and prune."""

    def test_registry_indexes_track_appends(self):
        pool = make_pool()
        facts = add(pool, "www.a.com",
                    available=("10.0.0.1", "10.0.0.2"))
        registry = pool.connections
        assert registry.for_host("www.a.com") == [facts]
        assert registry.by_ip["10.0.0.1"] == [facts]
        assert registry.by_ip["10.0.0.2"] == [facts]
        assert facts.pool_seq == 0

    def test_same_host_lookup_is_indexed(self):
        pool = make_pool()
        for index in range(50):
            add(pool, f"host{index:02d}.example")
        target = add(pool, "www.a.com")
        found = pool.find_same_host("www.a.com")
        assert found.facts is target
        # The lookup examined only the target's bucket, not the pool.
        assert pool.stats.candidates_examined == 1
        assert pool.stats.indexed_lookups == 1

    def test_ip_policy_coalesce_lookup_is_indexed(self):
        pool = make_pool(policy=ChromiumPolicy())
        for index in range(40):
            add(pool, f"host{index:02d}.example",
                available=(f"10.1.{index}.1",))
        target = add(pool, "www.a.com", san=("www.a.com", "cdn.a.com"),
                     available=("10.9.9.9",))
        found = pool.find_coalescable("cdn.a.com", ["10.9.9.9"])
        assert found.facts is target
        assert pool.stats.indexed_lookups == 1
        assert pool.stats.full_scans == 0
        assert pool.stats.candidates_examined == 1

    def test_origin_policy_falls_back_to_full_scan(self):
        pool = make_pool(policy=FirefoxPolicy(origin_frames=True))
        add(pool, "www.b.com")
        target = add(pool, "www.a.com",
                     san=("www.a.com", "cdn.a.com"),
                     origins=("cdn.a.com",))
        # ORIGIN-frame reuse needs no IP overlap, so the IP index
        # cannot bound the candidate set.
        found = pool.find_coalescable("cdn.a.com", ["10.200.0.1"])
        assert found.facts is target
        assert pool.stats.full_scans == 1

    def test_no_coalescing_policy_skips_lookup_entirely(self):
        pool = make_pool(policy=NoCoalescingPolicy())
        add(pool, "www.a.com", san=("www.a.com", "cdn.a.com"))
        outcome = pool.find_coalescable("cdn.a.com", ["10.0.0.1"])
        assert not outcome
        assert outcome.reason is ReasonCode.MISS_POLICY_FORBIDS
        assert pool.stats.candidates_examined == 0

    @pytest.mark.parametrize("policy_factory", [
        ChromiumPolicy,
        lambda: FirefoxPolicy(origin_frames=False),
        lambda: FirefoxPolicy(origin_frames=True),
        IdealOriginPolicy,
        NoCoalescingPolicy,
    ])
    def test_indexed_lookup_matches_reference_scan(self, policy_factory):
        """The indexed path picks exactly what the pre-index full scan
        picked, for every policy and a mixed pool."""
        pool = make_pool(policy=policy_factory())
        add(pool, "www.a.com", san=("www.a.com",),
            available=("10.0.0.1",))
        add(pool, "www.b.com", san=("www.b.com", "cdn.x.com"),
            available=("10.0.0.2", "10.0.0.3"))
        add(pool, "www.c.com", san=("www.c.com", "cdn.x.com"),
            origins=("cdn.x.com",), available=("10.0.0.4",))
        add(pool, "www.d.com", san=("www.d.com", "cdn.x.com"),
            available=("10.0.0.3",), anonymous=True)
        dead = add(pool, "www.e.com", san=("www.e.com", "cdn.x.com"),
                   available=("10.0.0.3",))
        dead.session.closed = True
        for candidate_ips in (["10.0.0.3"], ["10.0.0.2", "10.0.0.4"],
                              ["10.99.0.1"], []):
            expected = scan_coalescable(pool, "cdn.x.com", candidate_ips)
            assert pool.find_coalescable(
                "cdn.x.com", candidate_ips
            ).facts is expected


class TestPruning:
    """Dead sessions leave the registry and the indexes."""

    def test_lookup_prunes_closed_connections(self):
        pool = make_pool()
        facts = add(pool, "www.a.com")
        facts.session.closed = True
        assert not pool.find_same_host("www.a.com")
        assert len(pool.connections) == 0
        assert pool.connections.for_host("www.a.com") == []
        assert pool.stats.pruned_connections == 1

    def test_coalesce_lookup_prunes_failed_connections(self):
        pool = make_pool()
        facts = add(pool, "www.a.com", san=("www.a.com", "cdn.a.com"),
                    origins=("cdn.a.com",))
        facts.session.failed = "handshake failure"
        assert not pool.find_coalescable("cdn.a.com", ["10.0.0.1"])
        assert len(pool.connections) == 0
        assert "10.0.0.1" not in pool.connections.by_ip

    def test_prune_drops_dead_entries(self):
        pool = make_pool()
        alive = add(pool, "www.a.com")
        dead = add(pool, "www.b.com")
        dead.session.closed = True
        assert open_count(pool) == 1
        assert list(pool.connections) == [alive]
        assert pool.stats.pruned_connections == 1

    def test_close_all_empties_registry_and_indexes(self):
        pool = make_pool()
        add(pool, "www.a.com")
        add(pool, "www.b.com", available=("10.0.0.7",))
        pool.close_all()
        assert len(pool.connections) == 0
        assert pool.connections.by_sni == {}
        assert pool.connections.by_ip == {}
        assert open_count(pool) == 0
        assert pool.stats.pruned_connections == 2

    def test_pruned_connection_not_found_again(self):
        pool = make_pool()
        first = add(pool, "www.a.com")
        second = add(pool, "www.a.com")
        first.session.closed = True
        assert pool.find_same_host("www.a.com").facts is second
        # Only the live connection remains in the bucket.
        assert pool.connections.for_host("www.a.com") == [second]


class TestMidPathRstEviction:
    """A connection torn down by an on-path RST (``Transport.abort``)
    reads as failed; the next lookup must evict it from the registry
    and every index, never hand it out again."""

    def test_aborted_connection_evicted_everywhere(self):
        pool = make_pool()
        facts = add(pool, "www.a.com", san=("www.a.com",),
                    available=("10.0.0.1",))
        facts.session.failed = "connection aborted by mid-path RST"
        outcome = pool.find_same_host("www.a.com")
        assert not outcome
        assert outcome.reason is ReasonCode.MISS_CLOSED_STALE
        registry = pool.connections
        assert len(registry) == 0
        assert registry.for_host("www.a.com") == []
        assert registry.by_ip.get("10.0.0.1", []) == []
        assert pool.stats.pruned_connections == 1

    def test_eviction_records_exactly_one_audit_event(self):
        telemetry = Telemetry(clock=lambda: 0.0, trace=False, audit=True)
        audit = telemetry.audit
        pool = ConnectionPool(
            policy=FirefoxPolicy(origin_frames=True),
            telemetry=telemetry,
            page="https://www.a.com/",
        )
        facts = add(pool, "www.a.com")
        facts.session.failed = "connection aborted by mid-path RST"
        assert not pool.find_same_host("www.a.com")
        assert len(audit.events) == 1
        assert audit.events[0].code is ReasonCode.MISS_CLOSED_STALE

    def test_replacement_connection_is_found_after_rst(self):
        pool = make_pool()
        dead = add(pool, "www.a.com")
        dead.session.failed = "connection aborted by mid-path RST"
        assert not pool.find_same_host("www.a.com")
        fresh = add(pool, "www.a.com")
        assert pool.find_same_host("www.a.com").facts is fresh
        assert list(pool.connections) == [fresh]


class TestRegistryChurn:
    """Open/close storms: the registry's two indexes and the pool's
    counters stay exactly consistent however connections churn."""

    @staticmethod
    def check_indexes(registry):
        """Every live entry is indexed everywhere it should be, no
        index holds anything else, and no bucket is empty."""
        for facts in registry:
            assert facts in registry.by_sni[facts.sni]
            for ip in facts.available_set | {facts.connected_ip}:
                assert facts in registry.by_ip[ip]
        indexed = {
            id(facts) for bucket in registry.by_sni.values()
            for facts in bucket
        }
        assert indexed == {id(facts) for facts in registry}
        for index in (registry.by_sni, registry.by_ip):
            for bucket in index.values():
                assert bucket  # empty buckets are deleted, not kept

    def test_open_close_storm_keeps_indexes_consistent(self):
        import random

        rng = random.Random(2022)
        pool = make_pool(policy=ChromiumPolicy())
        live = []
        opened = closed = 0
        for step in range(400):
            if live and rng.random() < 0.45:
                victim = rng.choice(live)
                # Half the closures die loudly (failed), half quietly.
                if rng.random() < 0.5:
                    victim.session.failed = "storm"
                else:
                    victim.session.closed = True
                closed += 1
            else:
                host = f"host{rng.randrange(12):02d}.example"
                facts = add(
                    pool, host,
                    san=(host, "cdn.x.com"),
                    available=(f"10.0.{rng.randrange(6)}.1",),
                )
                live.append(facts)
                opened += 1
            # Lookups are what prune dead entries; interleave them.
            pool.find_same_host(f"host{rng.randrange(12):02d}.example")
            pool.find_coalescable(
                "cdn.x.com", [f"10.0.{rng.randrange(6)}.1"]
            )
            live = [facts for facts in live
                    if not facts.session.closed
                    and facts.session.failed is None]
            self.check_indexes(pool.connections)
        assert opened > 0 and closed > 0
        assert pool.stats.pruned_connections > 0
        assert pool.stats.pruned_connections <= closed
        # A final sweep leaves exactly the live entries, every one of
        # them still indexed, and the prune counter reconciles with
        # the closures.
        assert open_count(pool) == len(live)
        assert {id(facts) for facts in pool.connections} == \
            {id(facts) for facts in live}
        self.check_indexes(pool.connections)
        assert pool.stats.pruned_connections == closed

    def test_storm_then_drain_empties_every_index(self):
        pool = make_pool(policy=ChromiumPolicy())
        for index in range(40):
            add(pool, f"host{index:02d}.example",
                available=(f"10.1.{index}.1", "10.9.9.9"))
        for facts in list(pool.connections):
            facts.session.closed = True
        # One prune sweeps everything dead.
        assert open_count(pool) == 0
        assert pool.stats.pruned_connections == 40
        registry = pool.connections
        assert list(registry) == []
        assert registry.by_sni == {}
        assert registry.by_ip == {}

    def test_pool_seq_survives_churn_and_keeps_ordering(self):
        pool = make_pool(policy=ChromiumPolicy())
        first = add(pool, "www.a.com", available=("10.0.0.1",))
        second = add(pool, "www.b.com", available=("10.0.0.1",))
        pool.connections.discard(first)
        third = add(pool, "www.c.com", available=("10.0.0.1",))
        # Sequence numbers never recycle, so insertion order is total.
        assert second.pool_seq < third.pool_seq
        candidates = pool.connections.candidates_for_ips(["10.0.0.1"])
        assert candidates == [second, third]

    def test_discard_is_by_identity_not_equality(self):
        pool = make_pool()
        kept = add(pool, "www.a.com")
        twin = add(pool, "www.a.com")
        assert pool.connections.discard(twin)
        assert list(pool.connections) == [kept]
        assert pool.connections.for_host("www.a.com") == [kept]
        assert not pool.connections.discard(twin)  # already gone
