"""Workloads: what a pipeline run simulates.

A workload owns the experiment definition (config + shard layout --
the part that keys caches and run fingerprints), executes itself on
``jobs`` workers (one ``execute(jobs, options, rules, artifacts)``
each, over :func:`execute_shards`), and assembles the ordered sink
list for its outcome.  Three workloads cover every pipeline command:

* :class:`CrawlWorkload` -- the shared crawl behind ``crawl``,
  ``model``, ``privacy`` and ``explain``, folded into the page sink
  the command names; read from its cache unless the run is watched
  (``options.live``) or refreshed.
* :class:`TrafficWorkload` -- the population-scale traffic
  simulation behind ``traffic``; no cache exists.
* :class:`ChaosWorkload` -- the fault-injected crawl behind
  ``chaos``; never cached (the blast-radius report and audit stream
  only exist when the simulation actually runs).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional

from repro.obs.heartbeat import Heartbeat
from repro.runtime.console import shard_progress
from repro.runtime.instrument import ledger_watch
from repro.runtime.sinks import (
    AggregateSink,
    AuditSink,
    CacheStatusSink,
    CacheStoreSink,
    ChaosReportSink,
    LedgerSink,
    RenderSink,
    TraceSink,
)


@dataclass
class RunOutcome:
    """What a workload execution produced.

    ``result`` is the workload's product: a crawl's page sink (its
    :class:`~repro.dataset.characterize.CrawlFold`), the traffic
    aggregate, the chaos report.  ``trace`` is the merged
    :class:`~repro.telemetry.CrawlTrace` of the simulation that ran
    (empty when it ran uninstrumented) and ``None`` on a cache hit.
    """

    config: object
    shard_count: int
    result: object
    trace: object = None
    cache_hit: bool = False
    fingerprint: str = ""
    extras: dict = field(default_factory=dict)


def execute_shards(options, rules, unit: str, drive):
    """Run the shard driver ``drive(collect=, watch=)`` as every
    workload does.  A watched run (``options.live``) collects what
    ``options`` asks for -- metrics and phases at least, for the
    ledger -- and an unwatched one nothing.  The run's one per-shard
    callback is the live heartbeat when the run is watched and stderr
    is a TTY (it reads metrics only a watched run collects), else the
    ``shards: k/n`` line."""
    hb = Heartbeat()
    watched = options.live
    collect = (options.want_trace, options.want_audit) if watched else None
    watch = (ledger_watch(hb, rules, unit=unit) if watched and hb.enabled
             else shard_progress)
    try:
        return drive(collect=collect, watch=watch)
    finally:
        hb.close()


class CrawlWorkload:
    """The shared crawl pipeline: shards + cache + telemetry.

    ``pages`` makes the result, a fresh page sink for each read of the
    crawl: a :class:`~repro.dataset.characterize.CrawlFold` (the
    default) or a subclass that folds what its command renders beyond
    the tables and the ledger headline.  The crawl hands the sink each
    archive as its shard merges, or each line of a cache entry, and
    then each merged shard (:meth:`CrawlFold.on_shard
    <repro.dataset.characterize.CrawlFold.on_shard>`), so no archive
    outlives its shard's merge unless the sink keeps it.
    """

    unit = "pages"
    out_label = out_path = None

    def __init__(self, config, params, shards: int = 0,
                 cache_dir=None, no_cache: bool = False,
                 refresh: bool = False, command: str = "crawl",
                 pages=None) -> None:
        from repro.dataset.cache import CrawlCache
        from repro.dataset.characterize import CrawlFold
        from repro.dataset.shard import plan_shards

        self.config = config
        self.params = params
        self.shards = plan_shards(config, shards or None)
        self.shard_count = len(self.shards)
        self.cache = None if no_cache else CrawlCache(cache_dir)
        self.refresh = refresh
        self.command = command
        self.pages = pages or CrawlFold

    def fingerprint(self) -> str:
        """The content-addressed cache key doubles as the run
        fingerprint (config + params + shard layout)."""
        from repro.dataset.cache import cache_key

        return cache_key(self.config, self.params, self.shard_count)

    def execute(self, jobs: int, options, rules,
                artifacts) -> RunOutcome:
        """Stream the cache entry into a page sink when neither
        ``options.live`` nor ``refresh`` forbids it -- a cache hit
        would skip the simulation and produce no spans, audit events
        or phase histograms -- else crawl
        (:func:`~repro.dataset.shard.crawl_shards`) into a fresh one
        with the entry's ``.tmp`` open, so the shards merge straight
        into it; the cache sink publishes it."""
        from repro.dataset.shard import crawl_shards

        fingerprint = self.fingerprint()
        outcome = RunOutcome(config=self.config,
                             shard_count=self.shard_count, result=None,
                             fingerprint=fingerprint)
        if not (options.live or self.refresh) and self.cache is not None:
            outcome.result = self.cache.load(fingerprint, self.pages())
            outcome.cache_hit = outcome.result is not None
            if outcome.cache_hit:
                return outcome
        pages = self.pages()
        with (nullcontext() if self.cache is None
              else self.cache.writing(fingerprint)) as entry:
            outcome.result, outcome.trace = execute_shards(
                options, rules, self.unit, partial(
                    crawl_shards, self.shards, self.params, jobs,
                    archive_out=entry, crawl_trace=artifacts.crawl_trace(),
                    on_shard=pages.on_shard, pages=pages))
        return outcome

    def build_record(self, outcome, rules):
        from repro.obs.ledger import build_crawl_record

        return build_crawl_record(
            self.command, self.config, self.params,
            self.shard_count, outcome.result,
            outcome.trace.metrics, slo_rules=rules,
        )

    def sinks(self, options, rules, render=None,
              artifacts=None) -> List[object]:
        """Ordered sinks (the legacy diag/stdout interleaving): the
        cache, then a watched run's trace+metrics, audit and ledger,
        then the command's rendering."""
        if not options.live:
            sinks: List[object] = [CacheStatusSink(self.cache)]
        else:
            sinks = [CacheStoreSink(self.cache),
                     TraceSink(options, artifacts.trace)]
            if artifacts.audit is not None:
                sinks.append(AuditSink(artifacts.audit))
            if options.ledger_dir:
                sinks.append(
                    LedgerSink(options.ledger_dir, rules, self))
        if render is not None:
            sinks.append(RenderSink(render))
        return sinks


class _SimulationWorkload:
    """What traffic and chaos share: no cache, so every run
    simulates, and one sink order for the product (``out_sink`` writes
    it to ``--out``)."""

    def sinks(self, options, rules, render=None,
              artifacts=None) -> List[object]:
        """Ordered sinks: trace+metrics, *then* the stdout summary or
        report, then the out/audit/ledger artifacts -- the exact
        interleaving the traffic command always printed."""
        sinks: List[object] = [TraceSink(options, artifacts.trace)]
        if render is not None:
            sinks.append(RenderSink(render))
        if artifacts.out is not None:
            sinks.append(self.out_sink(artifacts.out))
        if artifacts.audit is not None:
            sinks.append(AuditSink(artifacts.audit))
        if options.ledger_dir:
            sinks.append(LedgerSink(options.ledger_dir, rules, self))
        return sinks


class TrafficWorkload(_SimulationWorkload):
    """Population-scale traffic simulation with edge load
    accounting; the aggregate is the result."""

    unit = "visits"
    out_label = "aggregate"
    out_sink = AggregateSink

    def __init__(self, scenario, shards: int = 0,
                 scenario_name: str = "baseline",
                 aggregate_out: Optional[str] = None) -> None:
        from repro.traffic.scenario import plan_user_shards

        self.scenario = scenario
        self.shard_count = len(plan_user_shards(scenario, shards or None))
        self.scenario_name = scenario_name
        self.out_path = aggregate_out

    def execute(self, jobs: int, options, rules,
                artifacts) -> RunOutcome:
        from repro.traffic import run_scenario

        aggregate, trace = execute_shards(options, rules, self.unit, partial(
            run_scenario, self.scenario, shard_count=self.shard_count,
            jobs=jobs, crawl_trace=artifacts.crawl_trace()))
        return RunOutcome(
            config=self.scenario, shard_count=self.shard_count,
            result=aggregate, trace=trace,
        )

    def build_record(self, outcome, rules):
        from repro.obs.ledger import build_traffic_record

        return build_traffic_record(
            self.scenario, outcome.shard_count, outcome.result,
            outcome.trace.metrics, slo_rules=rules,
            scenario_name=self.scenario_name,
        )


class ChaosWorkload(_SimulationWorkload):
    """A fault-injected crawl: the crawl pipeline plus an armed
    :class:`~repro.chaos.inject.FaultInjector` per shard and the
    shard-merged :class:`~repro.chaos.report.ChaosReport`, the result.
    No archive outlives its shard's merge: the report counts the pages,
    and a run that writes a ledger folds them for its headline
    (``extras["pages"]``, a
    :class:`~repro.dataset.characterize.CrawlFold`).

    Never cached: the schedule perturbs the simulation, so a cached
    (unfaulted) crawl would be the wrong result, and the report only
    exists when the simulation runs.
    """

    unit = "pages"
    out_label = "report"
    out_sink = ChaosReportSink

    def __init__(self, config, params, schedule, retry_policy,
                 shards: int = 0,
                 report_out: Optional[str] = None) -> None:
        from repro.dataset.shard import plan_shards

        self.config = config
        self.params = params
        self.schedule = schedule
        self.retry_policy = retry_policy
        self.shards = plan_shards(config, shards or None)
        self.shard_count = len(self.shards)
        self.out_path = report_out

    def fingerprint(self) -> str:
        """Crawl cache key extended with the schedule and retry
        policy: two chaos runs are "the same" only when the fault
        plan matches too."""
        import dataclasses

        from repro.dataset.cache import cache_key
        from repro.obs.ledger import canonical_fingerprint

        return canonical_fingerprint({
            "crawl": cache_key(self.config, self.params,
                               self.shard_count),
            "schedule": self.schedule.to_doc(),
            "retry": dataclasses.asdict(self.retry_policy),
        })

    def execute(self, jobs: int, options, rules,
                artifacts) -> RunOutcome:
        from repro.chaos.run import run_chaos
        from repro.dataset.characterize import CrawlFold

        extras = {}
        if options.ledger_dir:
            extras["pages"] = CrawlFold()
        trace, report = execute_shards(
            options, rules, self.unit, partial(
                run_chaos, self.shards, self.params, self.schedule,
                self.retry_policy, jobs,
                crawl_trace=artifacts.crawl_trace(),
                pages=extras.get("pages")))
        return RunOutcome(
            config=self.config, shard_count=self.shard_count,
            result=report, trace=trace,
            fingerprint=self.fingerprint(), extras=extras,
        )

    def build_record(self, outcome, rules):
        from repro.obs.ledger import build_crawl_record

        record = build_crawl_record(
            "chaos", self.config, self.params,
            self.shard_count, outcome.extras["pages"],
            outcome.trace.metrics, slo_rules=rules,
        )
        # Rekey onto the chaos fingerprint (schedule + retry policy
        # included) so an unchaosed crawl of the same dataset never
        # collides with a faulted one in the ledger.
        fingerprint = outcome.fingerprint or self.fingerprint()
        record.meta["fingerprint"] = fingerprint
        record.meta["run"] = f"chaos-{fingerprint[:12]}"
        record.meta["schedule"] = self.schedule.source
        report = outcome.result
        record.headline.update(
            connections_lost=report.connections_lost,
            coalesced_lost=report.coalesced_lost,
            hostnames_affected=report.hostnames_affected,
            mean_blast_radius=round(report.mean_blast_radius, 6),
            requests_retried=report.requests_retried,
            requests_exhausted=report.requests_exhausted,
        )
        return record
