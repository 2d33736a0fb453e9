"""Population-scale traffic simulation.

One shard simulates its slice of the user population against a full
replica of the synthetic CDN: every user is a persistent browser
profile (own resource cache, DNS cache, and TLS-ticket jar, so
revisits arrive warm), every visit is a real page load on the shared
simulated clock, and every edge event streams into a
:class:`~repro.traffic.aggregate.TrafficAggregate` the moment it
happens -- archives are folded and dropped, never retained, and the
edge monitor keeps counters, not request rows.

:func:`run_scenario` is a thin driver over the one shard executor
(:func:`repro.dataset.shard.merge_shards`): shards merge in shard
order, so ``run_scenario(jobs=4)`` is byte-identical to ``jobs=1``;
the shard *layout* is part of the experiment definition, exactly like
the crawl's.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.browser import BrowserContext, BrowserEngine
from repro.browser.policy import policy_by_name
from repro.browser.retry import RetryPolicy
from repro.dataset.generator import PageGenerator, SiteRecord
from repro.dataset.shard import ShardResult, merge_shards, shard_telemetry
from repro.dataset.world import CDN_REGION, TAIL_REGION, build_world
from repro.deployment.experiment import (
    deploy_origin,
    deployment_world_config,
    fleet_origin_plan,
)
from repro.netsim import Host, LinkSpec
from repro.telemetry import CrawlTrace, Telemetry
from repro.traffic.aggregate import TrafficAggregate
from repro.traffic.edge import EdgeLoadMonitor, apply_edge_capacity
from repro.traffic.population import UserProfile, build_population
from repro.traffic.scenario import (
    ScenarioConfig,
    UserShard,
    WHAT_IF_POLICIES,
    plan_user_shards,
    scenario_for_policy,
)

#: Per-user DNS latency knob (matches the crawl's default resolver).
DNS_LATENCY_MS = 48.0


def _world_config(scenario: ScenarioConfig):
    return deployment_world_config(
        site_count=scenario.site_count, seed=scenario.seed,
    )


def plan_replica(scenario: ScenarioConfig) -> List[SiteRecord]:
    """The site plan every shard's world replicates."""
    return PageGenerator(_world_config(scenario)).generate_all()


def _user_host(world, user_id: int) -> Host:
    """A dedicated access link per user.

    The crawl shares one client host whose region-wide ingress queue
    models one browser's access link; a population must not funnel
    every user through that single queue, so each user gets an own
    region with the same link characteristics and an own shared-ingress
    bottleneck (the user's parallel connections still contend with
    each other, not with the neighbours')."""
    region = f"user-{user_id}"
    latency = world.network.latency
    latency.set_link(region, CDN_REGION,
                     LinkSpec(rtt_ms=24.0, bandwidth_bpms=2500.0))
    latency.set_link(region, TAIL_REGION,
                     LinkSpec(rtt_ms=110.0, bandwidth_bpms=2000.0))
    latency.enable_shared_ingress(region, 2800.0)
    return world.network.add_host(
        Host(region, region, world.allocator.allocate(1))
    )


def _user_engine(
    world, profile: UserProfile, scenario: ScenarioConfig,
    policies: Dict[str, object], telemetry: Telemetry,
) -> BrowserEngine:
    """One persistent browser profile.  No RNG: speculative races and
    TLS 1.2 fallback are disabled, so a user's behaviour is a pure
    function of the schedule -- concurrency cannot reorder draws."""
    cohort = profile.cohort
    # Phase latencies are keyed per cohort x policy; recorders over
    # the shared registry dedupe onto the same histograms, so this
    # costs one small object per user.
    telemetry = telemetry.for_profile(cohort.policy, cohort.name)
    # The resolver times lookups into phase.dns but emits no DNS spans
    # or audit events.
    resolver = world.make_resolver(median_latency_ms=DNS_LATENCY_MS,
                                   telemetry=telemetry.phases_only())
    context = BrowserContext(
        network=world.network,
        client_host=_user_host(world, profile.user_id),
        resolver=resolver,
        trust_store=world.trust_store,
        authorities=world.authorities,
        policy=policies[cohort.policy],
        rng=None,
        speculative_rate=0.0,
        tls12_rate=0.0,
        asdb=world.asdb,
        cache_enabled=cohort.cache_enabled,
        user_agent=cohort.user_agent,
        tls_session_cache={},
        telemetry=telemetry,
        alpn=("h2",),
        retry_policy=RetryPolicy(
            max_retries=scenario.goaway_retry_limit,
            backoff_base_ms=scenario.goaway_retry_backoff_ms,
        ),
    )
    return BrowserEngine(context)


def simulate_shard(
    shard: UserShard,
    records: Sequence[SiteRecord],
    plan: Sequence[tuple],
    collect: Optional[Tuple[bool, bool]] = None,
) -> ShardResult:
    """Simulate one user-population shard against a world replica of
    the scenario's site plan, ``records`` (:func:`plan_replica`), with
    the deployment ``plan`` -- the rows of
    :func:`~repro.deployment.experiment.fleet_origin_plan`, or none --
    in place and ORIGIN frames on at every provider edge before any
    traffic flows.

    ``collect`` is :func:`~repro.dataset.shard.shard_telemetry`'s.
    The engines count retry decisions themselves, so the aggregate is
    the same either way.

    Returns a :class:`~repro.dataset.shard.ShardResult` whose payload
    is the shard's :class:`TrafficAggregate`, each cohort's PLT sum
    rounded as the JSONL export rounds it, bundled with whatever
    ``collect`` asked for: spans, audit events and the metrics (phase
    histograms and any traced counters).
    """
    scenario = shard.scenario
    world = build_world(_world_config(scenario), records=records)
    if plan:
        deploy_origin(world, plan)
        for server in world.provider_servers.values():
            server.config.send_origin_frames = True
    apply_edge_capacity(world, shard.edge_capacity())
    loop = world.network.loop

    aggregate = TrafficAggregate(
        users=shard.user_count,
        duration_ms=scenario.duration_ms,
        bucket_ms=scenario.bucket_ms,
        shard_count=shard.shard_count,
    )
    telemetry = shard_telemetry(loop.now, collect)
    monitor = EdgeLoadMonitor(world, aggregate, telemetry=telemetry)
    monitor.attach()

    policies = {
        cohort.policy: policy_by_name(cohort.policy)
        for cohort in scenario.cohorts
    }
    profiles, schedule = build_population(shard)
    engines: Dict[int, BrowserEngine] = {}
    for user_id in sorted(profiles):
        profile = profiles[user_id]
        aggregate.cohort_for(profile.cohort.name).users += 1
        engines[user_id] = _user_engine(
            world, profile, scenario, policies, telemetry
        )

    def start_visit(profile: UserProfile, visit) -> None:
        tally = aggregate.cohort_for(profile.cohort.name)
        tally.visits += 1
        if visit.visit_seq > 0:
            tally.revisits += 1
        hosted = world.sites[visit.site_index]
        if not hosted.record.accessible:
            tally.inaccessible += 1
            return
        engine = engines[visit.user_id]

        def on_complete(archive) -> None:
            tally.requests += len(archive.entries)
            tally.cached_responses += sum(
                1 for entry in archive.entries
                if entry.protocol == "cache"
            )
            if archive.page.success:
                tally.completed += 1
                tally.plt_total_ms += archive.page.on_load
            else:
                tally.failed += 1

        engine.load(hosted.record.page, on_complete)

    for visit in schedule:
        profile = profiles[visit.user_id]
        loop.schedule_at(
            visit.at_ms,
            lambda profile=profile, visit=visit:
                start_visit(profile, visit),
        )
    loop.run_until_idle()
    monitor.detach()

    for user_id in sorted(engines):
        engine = engines[user_id]
        aggregate.dns_queries += engine.context.resolver.stats.queries
        aggregate.retries += engine.retry_decisions
    for name in sorted(aggregate.edges):
        aggregate.totals.merge(aggregate.edges[name])
    # Per-edge peaks sum replica-style in ``merge``; the fleet total is
    # the true all-edge gauge peak, not the sum of per-edge peaks.
    aggregate.totals.peak_concurrent = monitor.peak_connections
    # The merge adds each shard's PLT sum rounded to the export's 6
    # places.  Unrounded sums could differ from those in the last
    # printed digit and move the aggregates that tests/data/digests.json
    # pins; rounding here keeps the merged sums byte-equal to them.
    for tally in aggregate.cohorts.values():
        tally.plt_total_ms = round(tally.plt_total_ms, 6)
    return ShardResult.bundle(aggregate, telemetry)


def run_scenario(
    scenario: ScenarioConfig,
    shard_count: Optional[int] = None,
    jobs: int = 1,
    collect: Optional[Tuple[bool, bool]] = None,
    watch: Optional[Callable[[int, int, CrawlTrace], None]] = None,
    crawl_trace: Optional[CrawlTrace] = None,
) -> Tuple[TrafficAggregate, CrawlTrace]:
    """Run a scenario over its shard plan, merging in shard order.

    ``collect`` is :func:`simulate_shard`'s; ``watch`` and
    ``crawl_trace`` are :func:`~repro.dataset.shard.merge_shards`'.
    """
    shards = plan_user_shards(scenario, shard_count)
    merged = TrafficAggregate(
        duration_ms=scenario.duration_ms,
        bucket_ms=scenario.bucket_ms,
        shard_count=len(shards),
    )
    # Planned once: in-process shards share the lists, pool workers
    # get them pickled with their payload.
    records = plan_replica(scenario)
    plan = fleet_origin_plan(records) if scenario.deployment == "origin" \
        else ()
    crawl_trace = merge_shards(
        simulate_shard, shards,
        [(shard, records, plan, collect) for shard in shards],
        jobs,
        lambda result: merged.merge(result.payload),
        watch, crawl_trace,
    )
    return merged, crawl_trace


def run_what_if(
    base: ScenarioConfig,
    shard_count: Optional[int] = None,
    jobs: int = 1,
    progress: Optional[Callable[[str, int, int], None]] = None,
) -> List[Tuple[str, TrafficAggregate]]:
    """The what-if sweep: the same population and world under each
    named policy mix (baseline browsers, ORIGIN deployment, ideal
    SAN coverage).  ``progress`` gets ``(policy, done_shards, total)``
    after each shard of each policy's run."""
    results: List[Tuple[str, TrafficAggregate]] = []
    for policy in WHAT_IF_POLICIES:
        watch = None
        if progress is not None:
            watch = (lambda done, total, _trace, policy=policy:
                     progress(policy, done, total))
        aggregate, _ = run_scenario(
            scenario_for_policy(base, policy), shard_count=shard_count,
            jobs=jobs, watch=watch,
        )
        results.append((policy, aggregate))
    return results


def what_if_rows(
    results: List[Tuple[str, TrafficAggregate]]
) -> Tuple[List[str], List[List[str]]]:
    """Render-ready what-if comparison (headers, rows)."""
    headers = [
        "scenario", "edge conns", "handshakes", "resumed",
        "coalesced", "goaways", "retries", "failed", "mean PLT ms",
    ]
    rows: List[List[str]] = []
    for policy, aggregate in results:
        totals = aggregate.totals
        completed = aggregate.completed
        plt = (
            sum(t.plt_total_ms for t in aggregate.cohorts.values())
            / completed if completed else 0.0
        )
        rows.append([
            policy,
            str(totals.connections),
            str(totals.handshakes),
            f"{totals.resumption_rate:.1%}",
            f"{totals.coalesced_share:.1%}",
            str(totals.goaways),
            str(aggregate.retries),
            str(aggregate.failed),
            f"{plt:.1f}",
        ])
    return headers, rows
