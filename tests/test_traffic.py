"""The population-scale traffic subsystem, unit through end to end.

End-to-end scenarios here stay tiny (a dozen users, a handful of
sites).  Byte identity across ``--jobs`` is the traffic rows' of
tests/data/digests.json; the full-size run is the ``traffic_warm``
workload of ``benchmarks/perf``.
"""

import pytest

from repro.audit.reasons import ReasonCode
from repro.cli import main
from repro.dataset.profiles import POPULAR_PROVIDER_BY_HOSTNAME
from repro.dataset.world import build_world
from repro.deployment.experiment import (
    deploy_origin,
    deployment_world_config,
    fleet_origin_plan,
)
from repro.traffic import (
    BASELINE_COHORTS,
    EdgeLoadMonitor,
    LoadCounters,
    ScenarioConfig,
    TrafficAggregate,
    WHAT_IF_POLICIES,
    build_population,
    apply_edge_capacity,
    plan_replica,
    plan_user_shards,
    run_scenario,
    scenario_for_policy,
    simulate_shard,
    what_if_rows,
)
from repro.traffic import simulate as simulate_module
from repro.traffic.edge import SELF_HOSTED


def tiny_scenario(**overrides) -> ScenarioConfig:
    defaults = dict(
        users=12,
        site_count=6,
        seed=2022,
        duration_ms=8_000.0,
        mean_visits_per_user=2.0,
        bucket_ms=2_000.0,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestPopulation:
    def test_population_is_deterministic(self):
        shard = plan_user_shards(tiny_scenario(), 1)[0]
        first = build_population(shard)
        second = build_population(shard)
        assert first == second

    def test_shards_partition_users_contiguously(self):
        scenario = tiny_scenario(users=10)
        shards = plan_user_shards(scenario, 2)
        ids = []
        for shard in shards:
            profiles, _ = build_population(shard)
            ids.extend(sorted(profiles))
        assert ids == list(range(10))

    def test_cohort_mix_covers_population(self):
        shard = plan_user_shards(tiny_scenario(users=40), 1)[0]
        profiles, _ = build_population(shard)
        names = {profile.cohort.name for profile in profiles.values()}
        assert names <= {spec.name for spec in BASELINE_COHORTS}
        assert len(names) > 1  # the mix actually mixes

    def test_schedule_sorted_and_in_window(self):
        scenario = tiny_scenario(users=20)
        shard = plan_user_shards(scenario, 1)[0]
        _, schedule = build_population(shard)
        times = [visit.at_ms for visit in schedule]
        assert times == sorted(times)
        assert all(0.0 <= t < scenario.duration_ms for t in times)
        assert any(visit.visit_seq > 0 for visit in schedule)


class TestAggregate:
    def test_merge_adds_counters(self):
        left = TrafficAggregate(users=2)
        left.edge_for("provider:X").connections = 3
        left.cohort_for("a").visits = 4
        left.bucket_for(0.0).requests = 5
        right = TrafficAggregate(users=3)
        right.edge_for("provider:X").connections = 7
        right.cohort_for("a").visits = 1
        right.bucket_for(0.0).requests = 2
        left.merge(right)
        assert left.users == 5
        assert left.edges["provider:X"].connections == 10
        assert left.cohorts["a"].visits == 5
        assert left.buckets[0].requests == 7

    def test_shard_rounding_preserves_jsonl(self):
        """A shard rounds each cohort's PLT sum to the export's 6
        places before it ships: that moves no byte of ``to_jsonl``."""
        aggregate = TrafficAggregate(users=4, duration_ms=1000.0)
        aggregate.edge_for("provider:X").handshakes = 2
        aggregate.cohort_for("a").plt_total_ms = 123.4567891
        aggregate.bucket_for(4500.0).coalesced_requests = 1
        before = aggregate.to_jsonl()
        for tally in aggregate.cohorts.values():
            tally.plt_total_ms = round(tally.plt_total_ms, 6)
        assert aggregate.to_jsonl() == before
        shipped = run_shard(plan_user_shards(tiny_scenario(), 1)[0])
        tallies = shipped.payload.cohorts.values()
        assert any(tally.plt_total_ms for tally in tallies)
        assert all(tally.plt_total_ms == round(tally.plt_total_ms, 6)
                   for tally in tallies)

    def test_coalesced_share_series_skips_empty_buckets(self):
        aggregate = TrafficAggregate(bucket_ms=1000.0)
        aggregate.bucket_for(0.0).requests = 10
        aggregate.bucket_for(0.0).coalesced_requests = 5
        aggregate.bucket_for(2500.0)  # empty: no requests
        series = aggregate.coalesced_share_series()
        assert series == [(0.0, 0.5, 10)]


class TestEdgeGroups:
    def test_groups_cover_every_server_kind(self):
        world = build_world(deployment_world_config(
            site_count=8, seed=2022,
        ))
        names = [name for name, _ in world.servers()]
        assert any(name.startswith("provider:") for name in names)
        assert SELF_HOSTED in names

    def test_capacity_applies_to_edges_not_origins(self):
        world = build_world(deployment_world_config(
            site_count=8, seed=2022,
        ))
        apply_edge_capacity(world, 4)
        for server in world.provider_servers.values():
            assert server.config.max_concurrent_connections == 4
        for hosted in world.sites:
            if hosted.record.self_hosted:
                assert (hosted.server.config.max_concurrent_connections
                        is None)


def deploy_fleet(world):
    """The fleet plan of ``world``'s own sites, deployed in it."""
    return deploy_origin(
        world, fleet_origin_plan(hosted.record for hosted in world.sites)
    )


def popular_by_provider():
    by_provider = {}
    for hostname, provider in POPULAR_PROVIDER_BY_HOSTNAME.items():
        by_provider.setdefault(provider, []).append(hostname)
    return by_provider


class TestFleetOriginDeployment:
    def test_reissues_cover_cohosted_popular_names(self):
        world = build_world(deployment_world_config(
            site_count=6, seed=2022,
        ))
        reissued = deploy_fleet(world)
        assert reissued > 0
        for provider, popular in popular_by_provider().items():
            server = world.provider_servers.get(provider)
            if server is None:
                continue
            for hostname in popular:
                chain = next(
                    chain for chain in server.config.chains
                    if chain[0].subject == hostname
                )
                assert all(chain[0].covers(name) for name in popular)
                origin_set = server.config.origin_sets[hostname]
                assert origin_set == tuple(
                    f"https://{name}" for name in sorted(popular)
                )

    def test_an_origin_shard_deploys_the_plan(self, monkeypatch):
        """The world a shard of an ``origin`` scenario builds has the
        fleet plan deployed and every provider edge sending ORIGIN
        frames before any traffic flows."""
        built = []

        def recording(*args, **kwargs):
            built.append(build_world(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(simulate_module, "build_world", recording)
        scenario = scenario_for_policy(tiny_scenario(), "origin")
        run_shard(plan_user_shards(scenario, 1)[0])
        (world,) = built
        for provider, popular in popular_by_provider().items():
            config = world.provider_servers[provider].config
            assert config.send_origin_frames
            for hostname in popular:
                served = config.chain_for_sni(hostname)[0]
                assert all(served.covers(name) for name in popular)
                assert config.origin_sets[hostname] == tuple(
                    f"https://{name}" for name in sorted(popular)
                )
        assert sum(server.stats.origin_frames_sent
                   for server in world.provider_servers.values()) > 0

    def test_provider_hosted_site_certs_grow(self):
        world = build_world(deployment_world_config(
            site_count=6, seed=2022,
        ))
        deploy_fleet(world)
        for hosted in world.sites:
            record = hosted.record
            if record.self_hosted or not hosted.certificate.san:
                continue
            popular = sorted(
                name for name, provider
                in POPULAR_PROVIDER_BY_HOSTNAME.items()
                if provider == record.provider
            )
            assert all(hosted.certificate.covers(name)
                       for name in popular)

    def test_idempotent_on_second_call(self):
        world = build_world(deployment_world_config(
            site_count=6, seed=2022,
        ))
        deploy_fleet(world)
        assert deploy_fleet(world) == 0


def run_shard(shard, collect=None):
    """``simulate_shard`` on a freshly planned replica of the shard's
    web, with the fleet plan deployed if the scenario deploys one."""
    records = plan_replica(shard.scenario)
    plan = fleet_origin_plan(records) \
        if shard.scenario.deployment == "origin" else ()
    return simulate_shard(shard, records, plan, collect)


class TestSimulateShard:
    def test_counters_and_audit_reconcile(self):
        shard = plan_user_shards(tiny_scenario(), 1)[0]
        shard_result = run_shard(shard, collect=(False, True))
        aggregate = shard_result.payload
        events = shard_result.events
        assert aggregate.visits > 0
        assert aggregate.completed > 0
        assert aggregate.totals.connections > 0
        assert aggregate.totals.handshakes > 0
        assert aggregate.totals.requests > 0
        # The fleet peak is a gauge over all edges, bounded by the sum
        # of per-edge activity.
        assert 0 < aggregate.totals.peak_concurrent <= \
            aggregate.totals.connections
        assert events
        # Every decision carries a real reason code (no UNKNOWNs).
        for event in events:
            assert ReasonCode(event.reason)

    def test_revisits_hit_warm_caches(self):
        shard = plan_user_shards(
            tiny_scenario(users=16, mean_visits_per_user=3.0), 1,
        )[0]
        aggregate = run_shard(shard).payload
        revisits = sum(t.revisits for t in aggregate.cohorts.values())
        cached = sum(
            t.cached_responses for t in aggregate.cohorts.values()
        )
        assert revisits > 0
        assert cached > 0
        assert aggregate.totals.resumed > 0  # TLS tickets survive

    def test_overload_goaways_and_retries(self):
        shard = plan_user_shards(
            tiny_scenario(users=16, edge_capacity=2), 1,
        )[0]
        shard_result = run_shard(shard, collect=(False, True))
        aggregate = shard_result.payload
        events = shard_result.events
        assert aggregate.totals.goaways > 0
        assert aggregate.retries > 0
        reasons = {event.reason for event in events}
        assert ReasonCode.EDGE_OVERLOAD_GOAWAY.value in reasons
        assert ReasonCode.MISS_RETRY_AFTER_GOAWAY.value in reasons

    def test_zero_retry_budget_degrades_gracefully(self):
        shard = plan_user_shards(
            tiny_scenario(users=16, edge_capacity=2,
                          goaway_retry_limit=0), 1,
        )[0]
        aggregate = run_shard(shard).payload
        assert aggregate.totals.goaways > 0
        assert aggregate.retries == 0
        assert aggregate.failed > 0  # refused loads fail, not crash


class TestUnwatchedShard:
    """``collect=None`` runs a shard on the null telemetry handle; the
    engines count retries themselves, so nothing in the aggregate
    depends on what is collected."""

    @pytest.mark.parametrize("scenario", [
        tiny_scenario(users=16, edge_capacity=2),
        tiny_scenario(users=16, site_count=8, seed=7, edge_capacity=4),
    ], ids=["overload", "seed7-capacity4"])
    def test_aggregate_independent_of_collectors(self, scenario):
        shard = plan_user_shards(scenario, 1)[0]
        unwatched = run_shard(shard)
        audited = run_shard(shard, collect=(True, True))
        assert audited.payload.retries > 0
        assert unwatched.payload == audited.payload
        # One retry per ``retry`` decision the audit log records,
        # retried or exhausted.
        assert audited.payload.retries == sum(
            1 for event in audited.events if event.kind == "retry")

    def test_builds_no_telemetry(self, monkeypatch):
        import repro.traffic.simulate as simulate

        def refuse(*args, **kwargs):
            raise AssertionError("an unwatched shard built a Telemetry")

        monkeypatch.setattr(simulate, "Telemetry", refuse)
        result = run_shard(plan_user_shards(tiny_scenario(), 1)[0])
        assert result.payload.visits > 0
        assert (result.spans, result.metrics, result.events) == \
            ((), (), ())

    def test_metrics_only_for_the_ledger(self):
        """``(False, False)`` is what ``--ledger`` alone runs: phase
        histograms per cohort, no spans, no audit events."""
        result = run_shard(plan_user_shards(tiny_scenario(), 1)[0],
                                collect=(False, False))
        cohorts = {dict(metric.labels).get("cohort")
                   for metric in result.metrics
                   if metric.name.startswith("phase.")}
        assert cohorts and cohorts <= set(result.payload.cohorts)
        assert list(result.spans) == list(result.events) == []

    @pytest.mark.parametrize("scenario", [
        tiny_scenario(),
        tiny_scenario(users=16, edge_capacity=2),
    ], ids=["plain", "overload"])
    def test_watched_shard_counts_every_pool_connection(self, scenario):
        """Each page load folds its pool counters into the shard's
        registry: on h2-only traffic, every connection a pool opens is
        one the edges accepted."""
        result = run_shard(plan_user_shards(scenario, 1)[0],
                                collect=(False, False))
        (opened,) = [metric.value for metric in result.metrics
                     if metric.name == "pool.connections_opened"]
        assert opened == result.payload.totals.connections > 0


class TestRunScenario:
    def test_shard_count_is_part_of_the_experiment(self):
        scenario = tiny_scenario()
        one, _ = run_scenario(scenario, shard_count=1)
        two, _ = run_scenario(scenario, shard_count=2)
        assert one.users == two.users == scenario.users
        # Different layouts are different experiments (per-shard world
        # replicas), not required to agree byte for byte.
        assert one.visits > 0 and two.visits > 0


class TestWhatIf:
    def test_origin_reduces_edge_connections(self):
        base = tiny_scenario(users=12, site_count=10)
        baseline, _ = run_scenario(
            scenario_for_policy(base, "baseline"),
        )
        origin, _ = run_scenario(
            scenario_for_policy(base, "origin"),
        )
        assert origin.totals.connections < baseline.totals.connections
        assert origin.totals.handshakes < baseline.totals.handshakes
        assert origin.totals.coalesced_requests > \
            baseline.totals.coalesced_requests

    def test_rows_cover_every_policy(self):
        results = []
        for index, policy in enumerate(WHAT_IF_POLICIES):
            aggregate = TrafficAggregate(users=1)
            aggregate.totals.connections = 10 - index
            aggregate.cohort_for("a").completed = 1
            aggregate.cohort_for("a").plt_total_ms = 100.0
            results.append((policy, aggregate))
        headers, rows = what_if_rows(results)
        assert headers[0] == "scenario"
        assert [row[0] for row in rows] == list(WHAT_IF_POLICIES)
        assert rows[0][1] == "10"


class TestTrafficCli:
    def test_traffic_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["traffic"])
        assert args.users == 1000
        assert args.sites == 40
        assert args.scenario == "baseline"
        assert args.what_if is False

    def test_traffic_run_writes_canonical_jsonl(self, tmp_path, capsys):
        out = tmp_path / "aggregate.jsonl"
        audit_out = tmp_path / "audit.jsonl"
        assert main([
            "traffic", "--users", "8", "--sites", "5",
            "--duration", "6", "--bucket", "2",
            "--out", str(out), "--audit", str(audit_out),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "Per-cohort outcomes" in stdout
        assert "Edge load by group" in stdout
        assert "Figure 8" in stdout
        lines = out.read_text().splitlines()
        assert lines  # canonical JSONL, meta first
        assert '"kind":"meta"' in lines[0]
        assert audit_out.read_text().strip()

    def test_cache_stats_and_prune(self, tmp_path, capsys):
        cache_dir = tmp_path / "crawls"
        cache_dir.mkdir()
        for index in range(3):
            (cache_dir / f"crawl-{index:032x}.jsonl").write_text("{}\n")
        assert main([
            "cache", "stats", "--cache-dir", str(cache_dir),
        ]) == 0
        assert "3 entries" in capsys.readouterr().out
        assert main([
            "cache", "prune", "--cache-dir", str(cache_dir),
            "--max-entries", "1",
        ]) == 0
        assert len(list(cache_dir.glob("crawl-*.jsonl"))) == 1

    def test_cache_prune_requires_a_bound(self, tmp_path):
        assert main([
            "cache", "prune", "--cache-dir", str(tmp_path),
        ]) == 2
