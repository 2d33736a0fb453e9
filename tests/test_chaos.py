"""repro.chaos: fault schedules, deterministic injection, blast radius.

Byte identity across ``--jobs`` (and against the last regenerated
output) is the chaos rows' of tests/data/digests.json: the demo
schedule, every fault kind at once, an empty schedule and the 240-site
demo.  The tests here check what the faults do.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from repro.audit.log import events_to_jsonl
from repro.audit.reasons import ReasonCode
from repro.browser import BrowserContext, BrowserEngine, FirefoxPolicy
from repro.browser.pool import ConnectionPool
from repro.browser.retry import RetryPolicy
from repro.chaos import (
    ChaosError,
    ChaosReport,
    DEFAULT_RETRY_POLICY,
    EMPTY_SCHEDULE,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    FaultTally,
    KINDS,
    load_fault_schedule,
    parse_fault_schedule,
    run_chaos,
)
from repro.cli import main
from repro.dataset.crawler import Crawler, CrawlParams, CrawlResult
from repro.dataset.generator import DatasetConfig
from repro.dataset.shard import (
    SEED_DOMAINS,
    crawl_shard,
    crawl_shards,
    derive_seed,
    plan_shards,
    plan_slices,
)
from repro.dataset.world import build_world
from repro.deployment import BuggyMiddlebox, DeploymentExperiment
from repro.deployment.experiment import deployment_world_config
from repro.telemetry import Telemetry
from tests.test_wire_counts import tap_every_network


# ---------------------------------------------------------------------------
# Schedule parsing and validation
# ---------------------------------------------------------------------------


class TestScheduleParsing:
    def test_full_table_round_trips(self):
        schedule = parse_fault_schedule(
            """
            [[fault]]
            name = "outage"
            kind = "edge_crash"
            at = 4000.0
            duration = 1500.0
            target = "edge-*"
            seed = 3
            """,
            source="inline",
        )
        assert schedule.source == "inline"
        (fault,) = schedule.faults
        assert fault == FaultSpec(name="outage", kind="edge_crash",
                                  at=4000.0, duration=1500.0,
                                  target="edge-*", seed=3)
        assert fault.until == 5500.0
        assert fault.active_at(4000.0) and not fault.active_at(5500.0)

    def test_defaults_and_windows(self):
        schedule = parse_fault_schedule(
            """
            [[fault]]
            kind = "packet_loss"
            at = 0.0
            rate = 0.01

            [[fault]]
            kind = "goaway_storm"
            at = 500.0
            """
        )
        loss, storm = schedule.faults
        # Default names are "<kind>-<index>"; open-ended windows for
        # duration-0 sampled kinds, instantaneous for one-shot kinds.
        assert loss.name == "packet_loss-0"
        assert storm.name == "goaway_storm-1"
        assert loss.until == float("inf")
        assert storm.until == storm.at
        assert not schedule.empty
        assert EMPTY_SCHEDULE.empty

    @pytest.mark.parametrize("body,fragment", [
        ("[[fault]]\nkind = \"meteor\"\nat = 0.0", "unknown fault kind"),
        ("[[fault]]\nkind = \"packet_loss\"", "'at' (simulated ms)"),
        ("[[fault]]\nkind = \"packet_loss\"\nat = -1.0", "must be >= 0"),
        ("[[fault]]\nat = 0.0", "'kind' is required"),
        ("[[fault]]\nkind = \"packet_loss\"\nat = 0.0\nrate = 0.0",
         "'rate' must be in (0, 1]"),
        ("[[fault]]\nkind = \"packet_loss\"\nat = 0.0\nrate = 1.5",
         "'rate' must be in (0, 1]"),
        ("[[fault]]\nkind = \"packet_loss\"\nat = 0.0\nblast = 2",
         "unknown key(s) ['blast']"),
        ("[[fault]]\nkind = \"packet_loss\"\nat = 0.0\ncount = -1",
         "'count' must be a non-negative integer"),
        ("[fault]\nkind = \"packet_loss\"\nat = 0.0",
         "only [[fault]] tables"),
        ("[[failure]]\nkind = \"packet_loss\"\nat = 0.0",
         "only [[fault]] tables"),
    ])
    def test_rejects_bad_tables(self, body, fragment):
        with pytest.raises(ChaosError) as excinfo:
            parse_fault_schedule(body)
        assert fragment in str(excinfo.value)

    def test_rejects_duplicate_names(self):
        with pytest.raises(ChaosError, match="duplicate fault name"):
            parse_fault_schedule(
                """
                [[fault]]
                name = "twin"
                kind = "goaway_storm"
                at = 100.0

                [[fault]]
                name = "twin"
                kind = "goaway_storm"
                at = 200.0
                """
            )

    def test_load_missing_file_is_chaos_error(self, tmp_path):
        with pytest.raises(ChaosError, match="cannot read"):
            load_fault_schedule(tmp_path / "absent.toml")

    def test_demo_schedule_parses(self):
        schedule = load_fault_schedule("examples/faults_demo.toml")
        assert [fault.kind for fault in schedule.faults] == [
            "packet_loss", "goaway_storm", "goaway_storm", "edge_crash",
        ]

    @staticmethod
    def two_site_world():
        (spec,) = plan_shards(DatasetConfig(site_count=2, seed=2022), 1)
        return spec.build_world(next(plan_slices([spec])))

    def test_arming_twice_is_a_bug(self):
        world = self.two_site_world()
        injector = FaultInjector(world, EMPTY_SCHEDULE, seed=1)
        injector.arm()
        with pytest.raises(ChaosError, match="already armed"):
            injector.arm()

    def test_dns_faults_require_a_resolver(self):
        world = self.two_site_world()
        schedule = FaultSchedule(faults=(
            FaultSpec(name="dns", kind="dns_servfail", at=0.0),
        ))
        with pytest.raises(ChaosError, match="no resolver"):
            FaultInjector(world, schedule, seed=1).arm()


# ---------------------------------------------------------------------------
# An empty schedule perturbs nothing; an armed fault fires
# ---------------------------------------------------------------------------


class TestEmptyScheduleNonPerturbation:
    def test_identical_to_plain_crawl(self):
        """Arming an empty schedule (retry policy pinned, retry RNG
        seeded) must not move a single byte of the archives or the
        audit stream relative to a plain crawl."""
        shards = plan_shards(DatasetConfig(site_count=6, seed=2022), 2)
        params = CrawlParams()

        p_result, p_trace = crawl_shards(shards, params, 1,
                                         collect=(True, True))
        c_result = CrawlResult()
        c_trace, report = run_chaos(
            shards, params, EMPTY_SCHEDULE, DEFAULT_RETRY_POLICY, 1,
            collect=(True, True), pages=c_result,
        )

        assert [a.to_json() for a in p_result.archives] \
            == [a.to_json() for a in c_result.archives]
        assert events_to_jsonl(p_trace.audit) \
            == events_to_jsonl(c_trace.audit)
        assert report.connections_lost == 0
        assert report.requests_retried == 0
        assert report.requests_exhausted == 0
        # The report counted the pages it was handed as they merged.
        assert report.pages_attempted == p_result.attempted
        assert report.pages_failed \
            == p_result.attempted - p_result.success_count
        assert report.connections_opened == sum(
            a.new_connection_count() for a in p_result.successes)


class TestFaultsFire:
    def test_faults_actually_fire(self):
        schedule = FaultSchedule(faults=(
            FaultSpec(name="storm", kind="goaway_storm", at=500.0),
        ), source="storm")
        trace, report = run_chaos(
            plan_shards(DatasetConfig(site_count=6, seed=2022), 1),
            CrawlParams(), schedule, DEFAULT_RETRY_POLICY, 1,
            collect=(True, True),
        )
        assert report.tallies[0].fired == 1
        assert report.connections_lost + report.immature_lost > 0
        reasons = {event.reason for event in trace.audit}
        assert ReasonCode.FAULT_INJECTED.value in reasons


# ---------------------------------------------------------------------------
# Termination: every fetch settles, whatever the schedule tears down
# ---------------------------------------------------------------------------


class TestTermination:
    """ROADMAP "Chaos must terminate".  Packet loss used to strand a
    cleartext ``http://`` fetch whose port-80 connection it tore: no
    close handler, so the fetch never settled and the page load never
    completed (``BrowserEngine.load_blocking`` raises on that)."""

    def test_the_shard_packet_loss_alone_used_to_hang(self, monkeypatch):
        """Shard 9 of the 240-site, 24-shard world at seed 2022 holds
        www.site000100.io, whose cleartext image lost its connection.
        Where a 0.8 % sampler lands depends on every byte's timing, so
        the loss is also made by construction: the first port-80 flow
        of the shard is torn as its response leaves the server."""
        torn_flows = []

        def tear_first_cleartext_flow(client, server_ip, port, client_end,
                                      server_end) -> None:
            if port == 80 and not torn_flows:
                torn_flows.append(server_ip)
                server_end.outbound_inspector = lambda data: False

        tap_every_network(monkeypatch, tear_first_cleartext_flow)
        schedule = FaultSchedule(faults=(
            FaultSpec(name="background-loss", kind="packet_loss", at=0.0,
                      rate=0.008),
        ), source="loss-only")
        spec = plan_shards(DatasetConfig(site_count=240, seed=2022), 24)[9]
        result = crawl_shard(spec, next(plan_slices([spec])),
                             CrawlParams(), (False, True),
                             (schedule, DEFAULT_RETRY_POLICY))
        hostnames = [a.page.hostname for a in result.payload.archives]
        assert len(hostnames) == 10 and "www.site000100.io" in hostnames
        torn = [
            event for event in result.events
            if event.kind == "decision" and event.decision == "cleartext"
            and event.reason == ReasonCode.RETRY_BACKOFF.value
        ]
        assert torn_flows and torn, \
            "no cleartext fetch was retried after a loss"

    @pytest.mark.parametrize("seed", [7, 11])
    def test_demo_schedule_completes_at_240_sites(self, seed, capsys):
        """The shipped example at the size that used to die (exit 0
        means every page load completed with nothing unsettled).  Seed
        2022 is the chaos-demo-240 row of tests/data/digests.json."""
        code = main([
            "chaos", "--sites", "240", "--shards", "24", "--no-cache",
            "--schedule", "examples/faults_demo.toml",
            "--seed", str(seed), "--jobs", "2",
        ])
        out = capsys.readouterr().out
        assert not code
        assert out.startswith("chaos: crawled 240 sites ")
        assert " exhausted retries" in out.splitlines()[-1]


# ---------------------------------------------------------------------------
# Every fault kind, armed at once
# ---------------------------------------------------------------------------


EVERY_KIND = "tests/data/faults_every_kind.toml"


@functools.lru_cache(maxsize=None)
def every_kind_run():
    """The all-kinds schedule over 24 sites offering h2 and h3, once
    per session (the reconciliation test audits the same run):
    ``(archives, trace, report)``."""
    result = CrawlResult()
    trace, report = run_chaos(
        plan_shards(DatasetConfig(site_count=24, seed=7), 2),
        CrawlParams(alpn="h2,h3"), load_fault_schedule(EVERY_KIND),
        DEFAULT_RETRY_POLICY, 1, collect=(False, True), pages=result,
    )
    return result, trace, report


def fault_records(trace, kind, decision):
    return [event for event in trace.audit
            if event.kind == "fault" and event.decision == decision
            and event.attrs["fault_kind"] == kind]


def _stretched_a_page(result, trace, tally):
    """The spike adds no event of its own; only it can hold a page
    for half its magnitude (the one-way delay it adds)."""
    (spike,) = [fault for fault in load_fault_schedule(EVERY_KIND).faults
                if fault.kind == "latency_spike"]
    longest = max(archive.page.on_load for archive in result.archives)
    return longest > spike.magnitude_ms / 2


def _lost_connections(result, trace, tally):
    return tally.connections_lost + tally.immature_lost > 0


def _tore_nothing_down(result, trace, tally):
    """No crawl-world server sends ORIGIN, so the §6.7 middlebox has
    nothing to object to (TestMiddleboxFaultSchedule covers the
    teardown)."""
    return tally.events == 0 and not any(
        event.reason == ReasonCode.MIDDLEBOX_TEARDOWN_UNKNOWN_FRAME.value
        for event in trace.audit
    )


def _recorded(decision, each=False):
    """The kind counted events and audited ``decision`` for it: once
    per event, or at least once (per server or per window)."""
    def check(result, trace, tally):
        records = len(fault_records(trace, tally.kind, decision))
        return tally.events > 0 and (
            records == tally.events if each else records > 0)
    return check


def _client_rejected_expired_leaves(result, trace, tally):
    errors = [event.attrs["error"] for event in trace.audit
              if event.reason == ReasonCode.TLS_HANDSHAKE_FAILED.value]
    return _recorded("cert-expiry")(result, trace, tally) and any(
        "expired" in error for error in errors)


#: Each kind's own mark on the run, beyond its activation.
MARKS = {
    "latency_spike": _stretched_a_page,
    "packet_loss": _lost_connections,
    "packet_corrupt": _lost_connections,
    "middlebox_teardown": _tore_nothing_down,
    "dns_servfail": _recorded("dns-servfail", each=True),
    "dns_timeout": _recorded("dns-timeout", each=True),
    "dns_stale": _recorded("dns-stale", each=True),
    "tls_fail": _recorded("tls-fail", each=True),
    "cert_rotation": _recorded("cert-rotation"),
    "cert_expiry": _client_rejected_expired_leaves,
    "edge_crash": _lost_connections,
    "goaway_storm": _lost_connections,
    "quic_blackhole": _recorded("restore"),
}


class TestEveryKind:
    def test_the_schedule_arms_each_kind_once(self):
        schedule = load_fault_schedule(EVERY_KIND)
        assert sorted(fault.kind for fault in schedule.faults) \
            == sorted(KINDS) == sorted(MARKS)

    @pytest.mark.parametrize("kind", KINDS)
    def test_kind_leaves_its_mark(self, kind):
        result, trace, report = every_kind_run()
        (tally,) = [t for t in report.tallies if t.kind == kind]
        assert tally.fired == 2  # once per shard
        assert MARKS[kind](result, trace, tally)

    @pytest.mark.parametrize("kind", KINDS)
    def test_kind_alone_settles_every_page(self, kind):
        """Each kind armed on its own (its installer with nothing else
        tearing connections down) still settles every page, and fires
        once per shard."""
        schedule = load_fault_schedule(EVERY_KIND)
        alone = replace(schedule, faults=tuple(
            fault for fault in schedule.faults if fault.kind == kind))
        _, report = run_chaos(
            plan_shards(DatasetConfig(site_count=8, seed=7), 2),
            CrawlParams(alpn="h2,h3"), alone, DEFAULT_RETRY_POLICY, 1,
        )
        assert report.tallies[0].fired == 2

    def test_stale_answers_are_the_expired_ones(self):
        """dns_stale serves only names whose TTL lapsed, so every stale
        answer comes after the first TTL (300 s) of simulated time."""
        _, trace, _ = every_kind_run()
        stale = [event for event in trace.audit
                 if event.reason == ReasonCode.STALE_DNS_SERVED.value]
        assert stale and min(event.at_ms for event in stale) > 300_000.0

    def test_retries_are_counted_once_per_request(self):
        """The report's retry counts are requests, not audit events:
        a request retried twice, or retried and then exhausted, counts
        once as retried; its failed final decision is not a retry."""
        _, trace, report = every_kind_run()
        requests = {"retry": set(), "exhausted": set()}
        for event in trace.audit:
            if event.kind == "retry":
                requests[event.decision].add(
                    (event.page, event.hostname, event.path))
        assert requests["exhausted"]
        assert report.requests_retried == len(requests["retry"])
        assert report.requests_exhausted == len(requests["exhausted"])


# ---------------------------------------------------------------------------
# Blast radius: the robustness cost of coalescing
# ---------------------------------------------------------------------------


COMPARE_POLICIES_GOLDEN = """\
chaos: 4 policies under examples/faults_demo.toml over 40 sites

policy           conns  lost  coal  hosts  blast  retried  exhaust    pages
---------------------------------------------------------------------------
none               989    45     0     45  1.000      408        0   27/ 40
chromium          1136    45    10     61  1.356      715        1   27/ 40
firefox+origin    1135    46    10     62  1.348      715        1   27/ 40
ideal-origin      1135    46    10     62  1.348      715        1   27/ 40
"""


class TestBlastRadius:
    def test_coalescing_widens_the_blast(self):
        """Ideal ORIGIN coalescing opens fewer connections than the
        unshared baseline but loses more hostnames per lost
        connection -- the §6.7 incident generalized (acceptance
        criterion for the chaos subsystem)."""
        schedule = load_fault_schedule("examples/faults_demo.toml")
        config = DatasetConfig(site_count=40, seed=2022)
        spec = plan_shards(config, 2)[0]
        records = next(plan_slices([spec]))
        reports = {}
        for policy in ("none", "ideal-origin"):
            shard_result = crawl_shard(
                spec, records, CrawlParams(policy=policy),
                collect=(False, True),
                chaos=(schedule, DEFAULT_RETRY_POLICY),
            )
            report = ChaosReport(policy=policy,
                                 schedule_source=schedule.source)
            report.absorb_tallies(shard_result.faults)
            report.connections_opened = sum(
                archive.new_connection_count()
                for archive in shard_result.payload.successes
            )
            reports[policy] = report
        baseline, ideal = reports["none"], reports["ideal-origin"]
        assert baseline.connections_lost > 0
        # Unshared connections carry exactly one hostname each.
        assert baseline.coalesced_lost == 0
        assert baseline.mean_blast_radius == pytest.approx(1.0)
        # Coalescing: fewer connections, wider blast.
        assert ideal.connections_opened < baseline.connections_opened
        assert ideal.coalesced_lost > 0
        assert ideal.mean_blast_radius > baseline.mean_blast_radius

    def test_compare_policies_golden(self, capsys):
        """The EXPERIMENTS.md ``--compare-policies`` command prints
        exactly this table, at ``--jobs 2``."""
        assert main([
            "chaos", "--schedule", "examples/faults_demo.toml",
            "--sites", "40", "--seed", "2022", "--shards", "2",
            "--compare-policies", "--jobs", "2",
        ]) == 0
        assert capsys.readouterr().out == COMPARE_POLICIES_GOLDEN

    def test_report_shard_merge_is_counter_addition(self):
        shard_tallies = [
            FaultTally(name="storm", kind="goaway_storm", fired=1,
                       events=3, connections_lost=2, coalesced_lost=1,
                       immature_lost=1, hostnames_affected=5,
                       requests_affected=9, clients={"10.0.0.1"}),
            FaultTally(name="storm", kind="goaway_storm", fired=1,
                       events=2, connections_lost=1, coalesced_lost=0,
                       immature_lost=0, hostnames_affected=1,
                       requests_affected=2, clients={"10.0.0.2"}),
        ]
        report = ChaosReport(policy="chromium", schedule_source="x")
        report.absorb_tallies(shard_tallies[:1])
        report.absorb_tallies(shard_tallies[1:])
        (tally,) = report.tallies
        assert tally.fired == 2
        assert tally.connections_lost == 3
        assert tally.hostnames_affected == 6
        assert tally.users_affected == 2
        assert report.mean_blast_radius == pytest.approx(2.0)

    def test_report_never_aliases_a_shards_tallies(self):
        """The serial path hands the report a shard's live tallies:
        mutating them afterwards must not move the report."""
        shard = [FaultTally(name="storm", kind="goaway_storm", fired=1,
                            connections_lost=2, hostnames_affected=5,
                            clients={"10.0.0.1"})]
        report = ChaosReport(policy="chromium", schedule_source="x")
        report.absorb_tallies(shard)
        before = report.to_jsonl()
        shard[0].connections_lost += 10
        shard[0].clients.add("10.0.0.9")
        assert report.to_jsonl() == before
        assert report.tallies[0] is not shard[0]
        assert report.tallies[0].clients is not shard[0].clients


# ---------------------------------------------------------------------------
# The pool's list under fault-driven eviction storms
# ---------------------------------------------------------------------------


def walked_to(candidates, found):
    """``candidates`` up to and including ``found`` (all of them when
    the lookup did not stop early)."""
    for index, facts in enumerate(candidates):
        if facts is found:
            return candidates[:index + 1]
    return candidates


def assert_none_left_dead(pool, visited):
    """No entry the lookup visited is still pooled dead, and the pool
    holds each connection once."""
    pooled = {id(facts) for facts in pool.connections}
    assert len(pooled) == len(pool.connections)
    for facts in visited:
        if id(facts) in pooled:
            assert not facts.session.closed
            assert facts.session.failed is None


class TestPoolUnderStorms:
    def test_no_visited_entry_survives_dead(self, monkeypatch):
        """Storms, crashes, and random loss rip connections out of the
        pool mid-crawl; after every lookup the pool holds no entry that
        lookup found dead, and holds each connection once."""
        same_host = ConnectionPool.find_same_host
        coalesce = ConnectionPool.find_coalescable
        pruned_by_lookups = []

        def find_same_host(pool, hostname, anonymous=False):
            before = list(pool.connections)
            pruned = pool.stats.pruned_connections
            outcome = same_host(pool, hostname, anonymous)
            visited = [facts for facts in before if facts.sni == hostname]
            if outcome.reason is ReasonCode.POOL_HIT_SAME_HOST and (
                not pool.prefer_h3 or outcome.facts.transport == "quic"
            ):
                visited = walked_to(visited, outcome.facts)
            assert_none_left_dead(pool, visited)
            pruned_by_lookups.append(pool.stats.pruned_connections - pruned)
            return outcome

        def find_coalescable(pool, hostname, dns_addresses,
                             anonymous=False):
            before = list(pool.connections)
            pruned = pool.stats.pruned_connections
            outcome = coalesce(pool, hostname, dns_addresses, anonymous)
            visited = walked_to([
                facts for facts in before
                if not pool.policy.requires_ip_overlap
                or facts.connected_ip in dns_addresses
                or not facts.available_set.isdisjoint(dns_addresses)
            ], outcome.facts) if not anonymous else []
            assert_none_left_dead(pool, visited)
            pruned_by_lookups.append(pool.stats.pruned_connections - pruned)
            return outcome

        monkeypatch.setattr(ConnectionPool, "find_same_host",
                            find_same_host)
        monkeypatch.setattr(ConnectionPool, "find_coalescable",
                            find_coalescable)
        schedule = FaultSchedule(faults=(
            FaultSpec(name="loss", kind="packet_loss", at=0.0,
                      rate=0.05),
            FaultSpec(name="storm", kind="goaway_storm", at=400.0),
            FaultSpec(name="crash", kind="edge_crash", at=700.0,
                      duration=400.0, target="edge-*"),
        ), source="storms")
        spec = plan_shards(DatasetConfig(site_count=10, seed=2022),
                           1)[0]
        world = spec.build_world(next(plan_slices([spec])))
        telemetry = Telemetry(clock=world.network.loop.now,
                              trace=False, audit=True)
        params = CrawlParams()
        crawler = Crawler(
            world, params, telemetry=telemetry,
            retry_policy=DEFAULT_RETRY_POLICY,
            retry_seed=derive_seed(params.seed, SEED_DOMAINS["retry"], 0, 1),
        )
        injector = FaultInjector(world, schedule, seed=derive_seed(
            params.seed, SEED_DOMAINS["chaos"], 0, 1),
            resolver=crawler.resolver, telemetry=telemetry)
        injector.arm()

        for hosted in world.sites:
            crawler.crawl_site(hosted)
        assert sum(pruned_by_lookups) >= 1
        assert sum(tally.events for tally in injector.tallies) > 0


# ---------------------------------------------------------------------------
# §6.7 as a fault schedule
# ---------------------------------------------------------------------------


def load_deployment_site(world, site, telemetry):
    context = BrowserContext(
        network=world.network,
        client_host=world.client_host,
        resolver=world.make_resolver(),
        trust_store=world.trust_store,
        authorities=world.authorities,
        policy=FirefoxPolicy(origin_frames=True),
        asdb=world.asdb,
        telemetry=telemetry,
    )
    return BrowserEngine(context).load_blocking(site.hosted.record.page)


class TestMiddleboxFaultSchedule:
    def test_schedule_reproduces_the_667_teardown(self):
        """A `middlebox_teardown` fault targeting the crawl client
        makes the same decisions as the hand-installed §6.7
        BuggyMiddlebox: same teardown events, same dead page."""

        def fresh_world():
            world = build_world(
                deployment_world_config(site_count=40, seed=77)
            )
            experiment = DeploymentExperiment(world)
            experiment.reissue_certificates()
            experiment.enable_origin_frames()
            return world, experiment

        # Run A: the original deployment-experiment middlebox.
        world_a, experiment_a = fresh_world()
        telemetry_a = Telemetry(clock=world_a.network.loop.now,
                                trace=False, audit=True)
        middlebox = BuggyMiddlebox(
            world_a.network,
            protected_clients={world_a.client_host.name},
            telemetry=telemetry_a,
        )
        middlebox.install()
        archive_a = load_deployment_site(
            world_a, experiment_a.sample[0], telemetry_a
        )
        middlebox.uninstall()

        # Run B: the same incident declared as a fault schedule.
        world_b, experiment_b = fresh_world()
        telemetry_b = Telemetry(clock=world_b.network.loop.now,
                                trace=False, audit=True)
        schedule = parse_fault_schedule(
            f"""
            [[fault]]
            name = "noncompliant-middlebox"
            kind = "middlebox_teardown"
            at = 0.0
            target = "{world_b.client_host.name}"
            """,
            source="middlebox-667",
        )
        injector = FaultInjector(world_b, schedule, seed=1,
                                 telemetry=telemetry_b)
        injector.arm()
        archive_b = load_deployment_site(
            world_b, experiment_b.sample[0], telemetry_b
        )

        # Both runs kill the page the same way.
        assert not archive_a.page.success
        assert not archive_b.page.success
        assert middlebox.stats.unknown_frames_seen > 0
        assert middlebox.stats.connections_torn_down > 0
        stats_b = injector.middlebox_stats
        assert stats_b.unknown_frames_seen \
            == middlebox.stats.unknown_frames_seen
        assert stats_b.connections_torn_down \
            == middlebox.stats.connections_torn_down
        assert stats_b.frames_inspected == middlebox.stats.frames_inspected

        def decisions(events):
            return [(event.reason, event.attrs.get("frame_type"))
                    for event in events if event.kind == "middlebox"]

        events_a = telemetry_a.audit.events
        events_b = telemetry_b.audit.events
        assert decisions(events_a) == decisions(events_b)
        assert decisions(events_b)  # the teardown is audited
        # The injector attributes the torn-down connection as a fault
        # loss on top of the middlebox's own decision record.
        assert injector.tallies[0].connections_lost \
            + injector.tallies[0].immature_lost > 0


# ---------------------------------------------------------------------------
# RetryPolicy shape
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_default_backoff_is_linear(self):
        """The shape the traffic simulator builds from its scenario's
        ``goaway_retry_limit`` / ``goaway_retry_backoff_ms``."""
        policy = RetryPolicy(max_retries=2, backoff_base_ms=120.0)
        assert policy.max_retries == 2
        assert not policy.retry_connection_loss
        assert policy.jitter_ms == 0.0
        # Linear backoff: attempt n waits n * base.
        rng = np.random.default_rng(0)
        assert policy.backoff_ms(1, rng) == pytest.approx(120.0)
        assert policy.backoff_ms(2, rng) == pytest.approx(240.0)
        assert policy.allows(1) and policy.allows(2)
        assert not policy.allows(3)


# ---------------------------------------------------------------------------
# CLI guard rails: bad inputs exit 2, never traceback
# ---------------------------------------------------------------------------


class TestCliGuards:
    def test_chaos_missing_schedule_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--schedule", str(tmp_path / "nope.toml"),
                  "--sites", "2"])
        assert excinfo.value.code == 2

    def test_chaos_invalid_schedule_exits_2(self, tmp_path):
        bad = tmp_path / "bad.toml"
        bad.write_text("[[fault]]\nkind = \"meteor\"\nat = 0.0\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--schedule", str(bad), "--sites", "2"])
        assert excinfo.value.code == 2

    def test_report_missing_record_exits_2(self, tmp_path):
        assert main(["report", str(tmp_path / "absent.json")]) == 2

    def test_report_empty_record_exits_2(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert main(["report", str(empty)]) == 2

    @pytest.mark.parametrize("line", ["null", "[1, 2]", '"record"'])
    def test_report_non_object_record_exits_2(self, tmp_path, line):
        garbled = tmp_path / "garbled.json"
        garbled.write_text(line + "\n")
        assert main(["report", str(garbled)]) == 2

    def test_report_phase_line_missing_fields_exits_2(self, tmp_path):
        truncated = tmp_path / "truncated.json"
        truncated.write_text(
            '{"schema": 1, "run_id": "x", "kind": "crawl", '
            '"created_at": "now", "meta": {}, "headline": {}}\n'
            '{"count": 3}\n'
        )
        assert main(["report", str(truncated)]) == 2

    def test_compare_missing_records_exit_2(self, tmp_path):
        assert main(["compare", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json")]) == 2

    def test_audit_diff_missing_file_exits_2(self, tmp_path):
        assert main(["audit-diff", str(tmp_path / "a.jsonl"),
                     str(tmp_path / "b.jsonl")]) == 2

    def test_audit_diff_garbled_exits_2(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text("not json\n")
        b.write_text("{}\n")
        assert main(["audit-diff", str(a), str(b)]) == 2

    def test_audit_diff_missing_fields_exits_2(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text('{"kind": "decision"}\n')
        b.write_text('{"kind": "decision"}\n')
        assert main(["audit-diff", str(a), str(b)]) == 2
