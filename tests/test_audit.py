"""Unit tests for the decision-audit subsystem: the closed taxonomy,
the event log, policy explanations, and the guarantee that every
pool lookup path emits exactly one reason code."""

import json

import pytest

from repro.audit import (
    NULL_AUDIT,
    AuditEvent,
    AuditLog,
    REASON_DESCRIPTIONS,
    ReasonCode,
    UnknownReasonCode,
    events_from_jsonl,
    events_to_jsonl,
    reason_code,
    taxonomy_table,
)
from repro.audit.log import NullAuditLog
from repro.browser.policy import (
    ChromiumPolicy,
    ConnectionFacts,
    FirefoxPolicy,
    IdealOriginPolicy,
    NoCoalescingPolicy,
)
from repro.browser.pool import ConnectionPool, MAX_H1_CONNECTIONS_PER_HOST
from repro.telemetry import Telemetry
from tests.test_browser_pool import FakeSession


class TestTaxonomy:
    def test_every_code_is_described(self):
        for code in ReasonCode:
            assert code in REASON_DESCRIPTIONS
            assert REASON_DESCRIPTIONS[code]

    def test_taxonomy_table_covers_every_code(self):
        rows = taxonomy_table()
        assert len(rows) == len(list(ReasonCode))
        assert {row[0] for row in rows} \
            == {code.value for code in ReasonCode}

    def test_hit_miss_credit_are_disjoint(self):
        for code in ReasonCode:
            assert sum([code.is_hit, code.value.startswith("MISS_"),
                        code.value.startswith("CREDIT_")]) <= 1

    def test_reason_code_round_trip(self):
        for code in ReasonCode:
            assert reason_code(code.value) is code

    def test_reason_code_rejects_unknown(self):
        with pytest.raises(UnknownReasonCode):
            reason_code("MISS_MADE_UP")

    def test_taxonomy_is_closed_to_ad_hoc_strings(self):
        # The enum is the whole vocabulary; a free-form string that is
        # not a member value cannot become a ReasonCode.
        with pytest.raises(ValueError):
            ReasonCode("connection was stale")


class TestAuditLog:
    def test_record_assigns_sequence_and_clock(self):
        ticks = iter([1.5, 2.5])
        log = AuditLog(clock=lambda: next(ticks))
        first = log.record("lookup", ReasonCode.POOL_HIT_SAME_HOST,
                           page="p", hostname="h", hit=True)
        second = log.record("decision", ReasonCode.MISS_NO_CONNECTION)
        assert (first.seq, second.seq) == (0, 1)
        assert (first.at_ms, second.at_ms) == (1.5, 2.5)
        assert first.attrs == {"hit": True}
        assert first.code is ReasonCode.POOL_HIT_SAME_HOST
        assert log.events == [first, second]

    def test_null_audit_is_a_flag(self):
        # The contract: a disabled flag and an empty stream; there is
        # no record() to call (every decision point checks enabled).
        assert isinstance(NULL_AUDIT, NullAuditLog)
        assert NULL_AUDIT.enabled is False
        assert NULL_AUDIT.events == []
        assert not hasattr(NULL_AUDIT, "record")

    def test_jsonl_round_trip(self):
        log = AuditLog()
        log.record("lookup", ReasonCode.MISS_SAN_MISMATCH,
                   page="https://a/", hostname="cdn.a", lookup="coalesce")
        log.record("decision", ReasonCode.HIT_BROWSER_CACHE,
                   page="https://a/", hostname="a", path="/x",
                   decision="cache", status=200)
        text = events_to_jsonl(log.events)
        assert text.endswith("\n")
        parsed = events_from_jsonl(text)
        assert parsed == log.events
        # Canonical form: sorted keys, compact separators.
        for line in text.splitlines():
            doc = json.loads(line)
            assert line == json.dumps(doc, sort_keys=True,
                                      separators=(",", ":"))

    def test_jsonl_empty_stream(self):
        assert events_to_jsonl([]) == ""
        assert events_from_jsonl("") == []

    def test_jsonl_rejects_unknown_reason(self):
        event = AuditLog().record("dns", ReasonCode.DNS_WIRE_QUERY)
        doc = event.to_dict()
        doc["reason"] = "TOTALLY_BOGUS"
        line = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        with pytest.raises(UnknownReasonCode):
            events_from_jsonl(line + "\n")


def facts_for(**kwargs):
    available = kwargs.pop("available", ("10.0.0.1",))
    anonymous = kwargs.pop("anonymous", False)
    return ConnectionFacts(
        session=FakeSession(**kwargs),
        sni="www.a.com",
        connected_ip=list(available)[0],
        available_set=frozenset(available),
        anonymous_partition=anonymous,
    )


#: (facts kwargs, candidate hostname, dns answer) -> expected code per
#: policy, exercising every branch of every ``explain``.
EXPLAIN_GRID = [
    (dict(multiplex=False, san=("cdn.a.com",)), "cdn.a.com",
     ["10.0.0.1"],
     {"chromium": ReasonCode.MISS_CANNOT_MULTIPLEX,
      "firefox": ReasonCode.MISS_CANNOT_MULTIPLEX,
      "firefox+origin": ReasonCode.MISS_CANNOT_MULTIPLEX,
      "ideal-origin": ReasonCode.MISS_CANNOT_MULTIPLEX,
      "none": ReasonCode.MISS_POLICY_FORBIDS}),
    (dict(san=("www.a.com",)), "cdn.a.com", ["10.0.0.1"],
     {"chromium": ReasonCode.MISS_SAN_MISMATCH,
      "firefox": ReasonCode.MISS_SAN_MISMATCH,
      "firefox+origin": ReasonCode.MISS_SAN_MISMATCH,
      "ideal-origin": ReasonCode.MISS_SAN_MISMATCH,
      "none": ReasonCode.MISS_POLICY_FORBIDS}),
    (dict(san=("cdn.a.com",), origins=("cdn.a.com",)), "cdn.a.com",
     ["10.99.0.1"],
     {"chromium": ReasonCode.MISS_NO_DNS_OVERLAP,
      "firefox": ReasonCode.MISS_NO_DNS_OVERLAP,
      "firefox+origin": ReasonCode.POOL_HIT_ORIGIN_FRAME,
      "ideal-origin": ReasonCode.POOL_HIT_ORIGIN_FRAME,
      "none": ReasonCode.MISS_POLICY_FORBIDS}),
    (dict(san=("cdn.a.com",), available=("10.0.0.1", "10.0.0.2")),
     "cdn.a.com", ["10.0.0.2"],
     {"chromium": ReasonCode.MISS_NO_DNS_OVERLAP,
      "firefox": ReasonCode.POOL_HIT_IP_SAN,
      "firefox+origin": ReasonCode.POOL_HIT_IP_SAN,
      "ideal-origin": ReasonCode.POOL_HIT_IP_SAN,
      "none": ReasonCode.MISS_POLICY_FORBIDS}),
    (dict(san=("cdn.a.com",)), "cdn.a.com", ["10.0.0.1"],
     {"chromium": ReasonCode.POOL_HIT_IP_SAN,
      "firefox": ReasonCode.POOL_HIT_IP_SAN,
      "firefox+origin": ReasonCode.POOL_HIT_IP_SAN,
      "ideal-origin": ReasonCode.POOL_HIT_IP_SAN,
      "none": ReasonCode.MISS_POLICY_FORBIDS}),
]

POLICIES = {
    "chromium": ChromiumPolicy,
    "firefox": lambda: FirefoxPolicy(origin_frames=False),
    "firefox+origin": lambda: FirefoxPolicy(origin_frames=True),
    "ideal-origin": IdealOriginPolicy,
    "none": NoCoalescingPolicy,
}


class TestPolicyExplain:
    @pytest.mark.parametrize("case", EXPLAIN_GRID)
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_explain_matches_expectation(self, name, case):
        kwargs, hostname, dns, expected = case
        policy = POLICIES[name]()
        facts = facts_for(**kwargs)
        assert policy.explain(facts, hostname, dns) is expected[name]

    @pytest.mark.parametrize("case", EXPLAIN_GRID)
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_pool_reuses_exactly_when_explain_hits(self, name, case):
        """The pool's reuse decision and the audited reason can never
        disagree: a lone candidate is reused iff ``explain`` hits."""
        kwargs, hostname, dns, _ = case
        policy = POLICIES[name]()
        pool = audited_pool(policy)
        facts = add(pool, "www.a.com", **kwargs)
        verdict = policy.explain(facts, hostname, dns)
        outcome = pool.find_coalescable(hostname, dns)
        assert outcome.hit == verdict.is_hit
        if verdict.is_hit:
            assert outcome.facts is facts
            assert outcome.reason is verdict
        assert [event.code for event in pool.audit.events] \
            == [outcome.reason]


def audited_pool(policy=None):
    pool = ConnectionPool(
        policy=policy or FirefoxPolicy(origin_frames=True),
        telemetry=Telemetry(clock=lambda: 0.0, trace=False, audit=True),
        page="https://page/",
    )
    return pool


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


class TestPoolEmitsExactlyOneReason:
    """Every lookup path records exactly one audit event, and its code
    matches the outcome the caller saw -- the exhaustiveness guarantee
    behind the per-request attribution."""

    def same_host_scenarios(self):
        def hit(pool):
            add(pool, "www.a.com")

        def idle_h1(pool):
            add(pool, "www.a.com", multiplex=False, busy=True)
            add(pool, "www.a.com", multiplex=False, busy=False)

        def h1_cap(pool):
            for _ in range(MAX_H1_CONNECTIONS_PER_HOST):
                add(pool, "www.a.com", multiplex=False, busy=True)

        def busy_h1(pool):
            add(pool, "www.a.com", multiplex=False, busy=True)

        def closed(pool):
            add(pool, "www.a.com").session.closed = True

        def partition(pool):
            add(pool, "www.a.com", anonymous=True)

        def empty(pool):
            pass

        return [
            (hit, ReasonCode.POOL_HIT_SAME_HOST),
            (idle_h1, ReasonCode.POOL_HIT_H1_IDLE),
            (h1_cap, ReasonCode.POOL_HIT_H1_CAP),
            (busy_h1, ReasonCode.MISS_CANNOT_MULTIPLEX),
            (closed, ReasonCode.MISS_CLOSED_STALE),
            (partition, ReasonCode.MISS_ANONYMOUS_PARTITION),
            (empty, ReasonCode.MISS_NO_CONNECTION),
        ]

    def test_same_host_paths(self):
        for setup, expected in self.same_host_scenarios():
            pool = audited_pool()
            setup(pool)
            outcome = pool.find_same_host("www.a.com")
            events = pool.audit.events
            assert len(events) == 1, setup.__name__
            assert events[0].kind == "lookup"
            assert events[0].code is expected, setup.__name__
            assert events[0].code is outcome.reason
            assert events[0].attrs["hit"] == outcome.hit

    def coalesce_scenarios(self):
        def hit_origin(pool):
            add(pool, "www.a.com", san=("www.a.com", "cdn.a.com"),
                origins=("cdn.a.com",))

        def hit_ip(pool):
            add(pool, "www.a.com", san=("www.a.com", "cdn.a.com"))

        def san_mismatch(pool):
            add(pool, "www.a.com", san=("www.a.com",))

        def cannot_multiplex(pool):
            add(pool, "www.a.com", multiplex=False,
                san=("www.a.com", "cdn.a.com"))

        def no_candidate(pool):
            pass

        return [
            (hit_origin, ReasonCode.POOL_HIT_ORIGIN_FRAME),
            (hit_ip, ReasonCode.POOL_HIT_IP_SAN),
            (san_mismatch, ReasonCode.MISS_SAN_MISMATCH),
            (cannot_multiplex, ReasonCode.MISS_CANNOT_MULTIPLEX),
            (no_candidate, ReasonCode.MISS_NO_CANDIDATE),
        ]

    def test_coalesce_paths(self):
        for setup, expected in self.coalesce_scenarios():
            pool = audited_pool()
            setup(pool)
            outcome = pool.find_coalescable("cdn.a.com", ["10.0.0.1"])
            events = pool.audit.events
            assert len(events) == 1, setup.__name__
            assert events[0].kind == "lookup"
            assert events[0].code is expected, setup.__name__
            assert events[0].code is outcome.reason

    def test_coalesce_anonymous_path(self):
        pool = audited_pool()
        add(pool, "www.a.com", san=("www.a.com", "cdn.a.com"))
        pool.find_coalescable("cdn.a.com", ["10.0.0.1"], anonymous=True)
        [event] = pool.audit.events
        assert event.code is ReasonCode.MISS_ANONYMOUS_PARTITION

    def test_coalesce_policy_forbids_path(self):
        pool = audited_pool(policy=NoCoalescingPolicy())
        add(pool, "www.a.com", san=("www.a.com", "cdn.a.com"))
        pool.find_coalescable("cdn.a.com", ["10.0.0.1"])
        [event] = pool.audit.events
        assert event.code is ReasonCode.MISS_POLICY_FORBIDS

    def test_coalesce_no_dns_overlap_indexed_path(self):
        pool = audited_pool(policy=ChromiumPolicy())
        add(pool, "www.a.com", san=("www.a.com", "cdn.a.com"))
        pool.find_coalescable("cdn.a.com", ["10.99.0.1"])
        [event] = pool.audit.events
        assert event.code is ReasonCode.MISS_NO_DNS_OVERLAP

    def test_coalesce_miss_priority_prefers_near_miss(self):
        # A SAN mismatch explains more than a non-multiplexing H1
        # bystander: the request *would* have coalesced with a wider
        # certificate.
        pool = audited_pool()
        add(pool, "www.b.com", multiplex=False, san=("www.b.com",))
        add(pool, "www.a.com", san=("www.a.com",))
        pool.find_coalescable("cdn.a.com", ["10.0.0.1"])
        [event] = pool.audit.events
        assert event.code is ReasonCode.MISS_SAN_MISMATCH

    def test_disabled_audit_records_nothing(self):
        pool = ConnectionPool(
            policy=FirefoxPolicy(origin_frames=True),
        )
        add(pool, "www.a.com")
        assert pool.find_same_host("www.a.com")
        assert pool.audit is NULL_AUDIT
        assert pool.audit.events == []
