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
from repro.telemetry import NULL_TELEMETRY, Telemetry
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


def open_count(pool):
    """Prune every dead connection, then count what is left: the
    pool must end up holding exactly the live entries."""
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


#: The pool every lookup-table row starts from, in insertion order:
#: (label, sni, ``add`` options).  Every entry but ``san-miss``
#: carries a certificate covering ``cdn.x.com``.
COVERS = ("cdn.x.com",)
MIXED_POOL = (
    ("dead", "www.d.com", dict(san=COVERS, origins=COVERS,
                               available=("10.0.0.1",), closed=True)),
    ("anon", "www.e.com", dict(san=COVERS, origins=COVERS,
                               available=("10.0.0.1",), anonymous=True)),
    ("san-miss", "www.f.com", dict(available=("10.0.0.1",))),
    ("h1", "www.g.com", dict(multiplex=False, san=COVERS,
                             available=("10.0.0.3",))),
    ("far", "www.c.com", dict(san=COVERS, origins=COVERS,
                              available=("10.0.0.9",))),
    ("near", "www.b.com", dict(san=COVERS,
                               available=("10.0.0.2", "10.0.0.3"))),
    ("same", "cdn.x.com", dict(san=COVERS, available=("10.0.0.1",))),
)
#: No usable, non-anonymous connection to another host.
SPARSE_POOL = tuple(
    row for row in MIXED_POOL if row[0] in ("dead", "anon", "same")
)

POLICIES = {
    "chromium": ChromiumPolicy,
    "firefox": lambda: FirefoxPolicy(origin_frames=False),
    "firefox+origin": lambda: FirefoxPolicy(origin_frames=True),
    "ideal-origin": IdealOriginPolicy,
    "none": NoCoalescingPolicy,
}
#: Shorthand keys of the expectation dicts below.
POLICY_GROUPS = {
    "ip": ("chromium", "firefox"),
    "origin": ("firefox+origin", "ideal-origin"),
    "*": tuple(POLICIES),
}

R = ReasonCode
#: (pool, lookup, hostname, dns answer, anonymous request,
#:  {policy or group: (facts label, candidates_examined,
#:                     pruned_connections, reason when watched)}).
#: A policy key overrides its group's.
LOOKUP_TABLE = (
    (MIXED_POOL, "coalesce", "cdn.x.com", ["10.0.0.1"], False, {
        "ip": (None, 1, 1, R.MISS_SAN_MISMATCH),
        "origin": ("far", 3, 1, R.POOL_HIT_ORIGIN_FRAME),
        "none": (None, 0, 0, R.MISS_POLICY_FORBIDS),
    }),
    (MIXED_POOL, "coalesce", "cdn.x.com", ["10.0.0.3"], False, {
        "chromium": (None, 2, 0, R.MISS_NO_DNS_OVERLAP),
        "firefox": ("near", 2, 0, R.POOL_HIT_IP_SAN),
        "origin": ("far", 3, 1, R.POOL_HIT_ORIGIN_FRAME),
        "none": (None, 0, 0, R.MISS_POLICY_FORBIDS),
    }),
    (MIXED_POOL, "coalesce", "cdn.x.com", ["10.0.0.77"], False, {
        "ip": (None, 0, 0, R.MISS_NO_DNS_OVERLAP),
        "origin": ("far", 3, 1, R.POOL_HIT_ORIGIN_FRAME),
        "none": (None, 0, 0, R.MISS_POLICY_FORBIDS),
    }),
    (MIXED_POOL, "coalesce", "cdn.x.com", [], False, {
        "ip": (None, 0, 0, R.MISS_NO_DNS_OVERLAP),
        "origin": ("far", 3, 1, R.POOL_HIT_ORIGIN_FRAME),
        "none": (None, 0, 0, R.MISS_POLICY_FORBIDS),
    }),
    (MIXED_POOL, "coalesce", "cdn.x.com", ["10.0.0.1"], True, {
        "*": (None, 0, 0, R.MISS_ANONYMOUS_PARTITION),
    }),
    (MIXED_POOL, "same-host", "cdn.x.com", [], False, {
        "*": ("same", 1, 0, R.POOL_HIT_SAME_HOST),
    }),
    (MIXED_POOL, "same-host", "www.d.com", [], False, {
        "*": (None, 0, 1, R.MISS_CLOSED_STALE),
    }),
    (MIXED_POOL, "same-host", "www.e.com", [], False, {
        "*": (None, 0, 0, R.MISS_ANONYMOUS_PARTITION),
    }),
    (MIXED_POOL, "same-host", "www.g.com", [], False, {
        "*": ("h1", 1, 0, R.POOL_HIT_H1_IDLE),
    }),
    (SPARSE_POOL, "coalesce", "cdn.x.com", ["10.0.0.1"], False, {
        "ip": (None, 0, 1, R.MISS_NO_CANDIDATE),
        "origin": (None, 0, 1, R.MISS_NO_CANDIDATE),
        "none": (None, 0, 0, R.MISS_POLICY_FORBIDS),
    }),
    (SPARSE_POOL, "coalesce", "cdn.x.com", ["10.0.0.77"], False, {
        "ip": (None, 0, 0, R.MISS_NO_CANDIDATE),
        "origin": (None, 0, 1, R.MISS_NO_CANDIDATE),
        "none": (None, 0, 0, R.MISS_POLICY_FORBIDS),
    }),
)


def expected_for(expectations, policy):
    if policy in expectations:
        return expectations[policy]
    for group, members in POLICY_GROUPS.items():
        if group in expectations and policy in members:
            return expectations[group]
    raise KeyError(policy)


class TestLookupTable:
    """Every policy against a pool of other-host connections that do
    and do not share an address with the DNS answer, a dead one, an
    anonymous one and a same-SNI one: each lookup pins the returned
    connection, the candidates examined, the entries pruned and, when
    watched, the reason."""

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("row", range(len(LOOKUP_TABLE)))
    def test_lookup(self, row, policy):
        layout, kind, hostname, dns, anonymous, expectations = \
            LOOKUP_TABLE[row]
        label, examined, pruned, reason = expected_for(expectations,
                                                       policy)
        for watched in (False, True):
            telemetry = Telemetry(clock=lambda: 0.0, trace=False,
                                  audit=True)
            pool = ConnectionPool(
                policy=POLICIES[policy](),
                telemetry=telemetry if watched else NULL_TELEMETRY,
            )
            by_label = {}
            for name, sni, options in layout:
                options = dict(options)
                closed = options.pop("closed", False)
                by_label[name] = add(pool, sni, **options)
                by_label[name].session.closed = closed
            if kind == "coalesce":
                outcome = pool.find_coalescable(hostname, dns,
                                                anonymous=anonymous)
            else:
                outcome = pool.find_same_host(hostname,
                                              anonymous=anonymous)
            assert outcome.facts is by_label.get(label)
            assert pool.stats.candidates_examined == examined
            assert pool.stats.pruned_connections == pruned
            assert len(pool.connections) == len(layout) - pruned
            if watched:
                assert outcome.reason is reason
                assert [event.code for event in telemetry.audit.events] \
                    == [reason]


class TestPruning:
    """Dead sessions a lookup visits leave the pool's list."""

    def test_lookup_prunes_closed_connections(self):
        pool = make_pool()
        facts = add(pool, "www.a.com")
        facts.session.closed = True
        assert not pool.find_same_host("www.a.com")
        assert pool.connections == []
        assert pool.stats.pruned_connections == 1

    def test_coalesce_lookup_prunes_failed_connections(self):
        pool = make_pool()
        facts = add(pool, "www.a.com", san=("www.a.com", "cdn.a.com"),
                    origins=("cdn.a.com",))
        facts.session.failed = "handshake failure"
        assert not pool.find_coalescable("cdn.a.com", ["10.0.0.1"])
        assert pool.connections == []

    def test_lookup_prunes_only_the_dead_entries_it_visited(self):
        pool = make_pool(policy=ChromiumPolicy())
        other_host = add(pool, "www.b.com", available=("10.0.0.2",))
        other_address = add(pool, "www.c.com", available=("10.0.0.9",))
        alive = add(pool, "www.a.com")
        other_host.session.closed = True
        other_address.session.closed = True
        # Same-host visits only its own SNI; an address-overlap policy
        # never visits a connection sharing no address.
        assert pool.find_same_host("www.a.com").facts is alive
        assert not pool.find_coalescable("cdn.a.com", ["10.0.0.2"])
        assert pool.connections == [other_address, alive]
        assert pool.stats.pruned_connections == 1

    def test_prune_drops_dead_entries(self):
        pool = make_pool()
        alive = add(pool, "www.a.com")
        dead = add(pool, "www.b.com")
        dead.session.closed = True
        assert open_count(pool) == 1
        assert pool.connections == [alive]
        assert pool.stats.pruned_connections == 1

    def test_close_all_empties_the_pool(self):
        pool = make_pool()
        first = add(pool, "www.a.com")
        second = add(pool, "www.b.com", available=("10.0.0.7",))
        pool.close_all()
        assert pool.connections == []
        assert first.session.closed and second.session.closed
        assert pool.stats.pruned_connections == 2

    def test_pruned_connection_not_found_again(self):
        pool = make_pool()
        first = add(pool, "www.a.com")
        second = add(pool, "www.a.com")
        first.session.closed = True
        assert pool.find_same_host("www.a.com").facts is second
        assert pool.connections == [second]

    def test_prune_is_by_identity_not_equality(self):
        pool = make_pool()
        kept = add(pool, "www.a.com")
        twin = ConnectionFacts(
            session=kept.session, sni=kept.sni,
            connected_ip=kept.connected_ip,
            available_set=kept.available_set,
        )
        pool.connections.append(twin)
        assert twin == kept
        pool._prune([twin])
        assert len(pool.connections) == 1
        assert pool.connections[0] is kept
        pool._prune([twin])  # already gone
        assert pool.stats.pruned_connections == 1


class TestMidPathRstEviction:
    """A connection torn down by an on-path RST (``Transport.abort``)
    reads as failed; the next lookup must evict it from the pool,
    never hand it out again."""

    def test_aborted_connection_evicted_everywhere(self):
        pool = make_pool()
        facts = add(pool, "www.a.com", san=("www.a.com",),
                    available=("10.0.0.1",))
        facts.session.failed = "connection aborted by mid-path RST"
        outcome = pool.find_same_host("www.a.com")
        assert not outcome
        assert outcome.reason is ReasonCode.MISS_CLOSED_STALE
        assert pool.connections == []
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
        assert pool.connections == [fresh]
