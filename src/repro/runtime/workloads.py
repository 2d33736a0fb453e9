"""Workloads: what a pipeline run simulates.

A workload owns the experiment definition (config + shard layout --
the part that keys caches and run fingerprints), knows how to execute
itself on ``jobs`` workers, and assembles the ordered sink list for its
outcome.  Three workloads cover every pipeline command:

* :class:`CrawlWorkload` -- the shared crawl behind ``crawl``,
  ``model``, ``privacy`` and ``explain``; cached unless
  instrumentation forces the live path.
* :class:`TrafficWorkload` -- the population-scale traffic
  simulation behind ``traffic``; always live (no cache exists).
* :class:`ChaosWorkload` -- the fault-injected crawl behind
  ``chaos``; always live (the blast-radius report and audit stream
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

    ``result`` is the workload's product: a crawl's page sink (the
    archives, or their :class:`~repro.dataset.characterize.CrawlFold`),
    the traffic aggregate, the chaos report.  ``trace`` is the merged
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


def run_live(rules, unit: str, run):
    """Run ``run(progress=..., watch=...)`` -- a shard driver -- with
    the live heartbeat wired in: the heartbeat replaces the per-shard
    progress line when it is enabled and always feeds the ledger
    watch."""
    hb = Heartbeat()
    try:
        return run(
            progress=None if hb.enabled else shard_progress,
            watch=ledger_watch(hb, rules, unit=unit),
        )
    finally:
        hb.close()


def run_watched(options, rules, unit: str, run):
    """Run the shard driver ``run`` with collectors only when something
    watches (``options.live``): an unwatched run collects nothing and
    prints the per-shard progress lines, since the heartbeat reads
    metrics such a run never collects."""
    if options.live:
        return run_live(rules, unit, partial(
            run, collect=(options.want_trace, options.want_audit)))
    return run(progress=shard_progress)


class CrawlWorkload:
    """The shared crawl pipeline: shards + cache + telemetry.

    ``keep_archives`` picks the result: every archive (a
    :class:`~repro.dataset.crawler.CrawlResult`, for the commands that
    model or audit pages) or, when false, only their
    :class:`~repro.dataset.characterize.CrawlFold` -- the tables and
    the ledger headline -- so no archive outlives its shard's merge or
    its line of a cache entry.
    """

    unit = "pages"
    always_live = False
    out_label = out_path = None

    def __init__(self, config, params, shards: int = 0,
                 cache_dir=None, no_cache: bool = False,
                 refresh: bool = False, command: str = "crawl",
                 keep_archives: bool = True) -> None:
        from repro.dataset.cache import CrawlCache
        from repro.dataset.shard import plan_shards

        self.config = config
        self.params = params
        self.shards = plan_shards(config, shards or None)
        self.shard_count = len(self.shards)
        self.cache = None if no_cache else CrawlCache(cache_dir)
        self.refresh = refresh
        self.command = command
        self.keep_archives = keep_archives

    def fingerprint(self) -> str:
        """The content-addressed cache key doubles as the run
        fingerprint (config + params + shard layout)."""
        from repro.dataset.cache import cache_key

        return cache_key(self.config, self.params, self.shard_count)

    def execute_live(self, jobs: int, options, rules,
                     artifacts) -> RunOutcome:
        """Instrumented crawl: heartbeat + spans/audit/metrics, the
        records streaming into ``artifacts`` as the shards merge.

        Bypasses cache reads -- a cache hit would skip the simulation
        and produce no spans, audit events, or phase histograms -- but
        still writes the entry; ``CacheStoreSink`` publishes it.
        """
        return run_live(rules, self.unit, partial(
            self._crawl, jobs, (options.want_trace, options.want_audit),
            reuse=False, crawl_trace=artifacts.crawl_trace(),
            headline=bool(options.ledger_dir),
        ))

    def execute_cached(self, jobs: int) -> RunOutcome:
        """Untraced crawl: a cache hit is the result (unless
        ``refresh``); a miss crawls with no telemetry object and
        writes the entry, which ``CacheStatusSink`` publishes."""
        return self._crawl(jobs, None, reuse=not self.refresh,
                           progress=shard_progress)

    def _pages(self, headline: bool):
        """A fresh page sink for one read of the crawl; ``headline``
        (a ledger will be written) makes a fold keep the ledger's §4
        counts too."""
        from repro.dataset.characterize import CrawlFold
        from repro.dataset.crawler import CrawlResult

        if self.keep_archives:
            return CrawlResult()
        return CrawlFold(headline=headline)

    def _crawl(self, jobs: int, collect, reuse: bool, progress=None,
               watch=None, crawl_trace=None,
               headline: bool = False) -> RunOutcome:
        """Both paths: stream the cache entry into a page sink when
        ``reuse`` allows, else run
        :func:`~repro.dataset.shard.crawl_shards` into a fresh one
        with the entry's ``.tmp`` open, so the shards merge straight
        into it."""
        from repro.dataset.shard import crawl_shards

        fingerprint = self.fingerprint()
        outcome = RunOutcome(config=self.config,
                             shard_count=self.shard_count, result=None,
                             fingerprint=fingerprint)
        if reuse and self.cache is not None:
            outcome.result = self.cache.load(fingerprint,
                                             self._pages(headline))
            outcome.cache_hit = outcome.result is not None
            if outcome.cache_hit:
                return outcome
        with (nullcontext() if self.cache is None
              else self.cache.writing(fingerprint)) as entry:
            outcome.result, outcome.trace = crawl_shards(
                self.shards, self.params, jobs, collect=collect,
                archive_out=entry, progress=progress, watch=watch,
                crawl_trace=crawl_trace, pages=self._pages(headline),
            )
        return outcome

    def build_record(self, outcome, rules):
        from repro.obs.ledger import build_crawl_record

        return build_crawl_record(
            self.command, self.config, self.params,
            self.shard_count, outcome.result,
            outcome.trace.metrics, slo_rules=rules,
        )

    def sinks(self, options, rules, live: bool, render=None,
              artifacts=None) -> List[object]:
        """Ordered sinks (the legacy diag/stdout interleaving):
        cache, trace+metrics, audit, ledger, then the command's
        rendering."""
        sinks: List[object] = []
        if live:
            sinks.append(CacheStoreSink(self.cache))
            sinks.append(TraceSink(options, artifacts.trace))
            if artifacts.audit is not None:
                sinks.append(AuditSink(artifacts.audit))
            if options.ledger_dir:
                sinks.append(
                    LedgerSink(options.ledger_dir, rules, self))
        else:
            sinks.append(CacheStatusSink(self.cache))
        if render is not None:
            sinks.append(RenderSink(render))
        return sinks


class TrafficWorkload:
    """Population-scale traffic simulation with edge load
    accounting.  Always live; the aggregate is the result."""

    unit = "visits"
    always_live = True
    out_label = "aggregate"

    def __init__(self, scenario, shards: int = 0,
                 scenario_name: str = "baseline",
                 aggregate_out: Optional[str] = None) -> None:
        from repro.traffic.scenario import plan_user_shards

        self.scenario = scenario
        self.shard_count = len(plan_user_shards(scenario, shards or None))
        self.scenario_name = scenario_name
        self.out_path = aggregate_out

    def execute_live(self, jobs: int, options, rules,
                     artifacts) -> RunOutcome:
        from repro.traffic import run_scenario

        aggregate, trace = run_watched(options, rules, self.unit, partial(
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

    def sinks(self, options, rules, live: bool, render=None,
              artifacts=None) -> List[object]:
        """Ordered sinks: trace+metrics, *then* the stdout summary
        and tables, then aggregate/audit/ledger artifacts -- the
        exact interleaving the traffic command always printed."""
        sinks: List[object] = [TraceSink(options, artifacts.trace)]
        if render is not None:
            sinks.append(RenderSink(render))
        if artifacts.out is not None:
            sinks.append(AggregateSink(artifacts.out))
        if artifacts.audit is not None:
            sinks.append(AuditSink(artifacts.audit))
        if options.ledger_dir:
            sinks.append(LedgerSink(options.ledger_dir, rules, self))
        return sinks


class ChaosWorkload:
    """A fault-injected crawl: the crawl pipeline plus an armed
    :class:`~repro.chaos.inject.FaultInjector` per shard and the
    shard-merged :class:`~repro.chaos.report.ChaosReport`, the result.
    No archive outlives its shard's merge: the report counts the pages,
    and a run that writes a ledger folds them for its headline
    (``extras["pages"]``, a
    :class:`~repro.dataset.characterize.CrawlFold`).

    Always live and never cached: the schedule perturbs the
    simulation, so a cached (unfaulted) crawl would be the wrong
    result, and the report itself only exists on the live path.
    """

    unit = "pages"
    always_live = True
    out_label = "report"

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

    def execute_live(self, jobs: int, options, rules,
                     artifacts) -> RunOutcome:
        from repro.chaos.run import run_chaos
        from repro.dataset.characterize import CrawlFold

        extras = {}
        if options.ledger_dir:
            extras["pages"] = CrawlFold(headline=True)
        trace, report = run_watched(
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

    def sinks(self, options, rules, live: bool, render=None,
              artifacts=None) -> List[object]:
        """Ordered sinks: trace+metrics, the stdout report, then the
        report/audit/ledger artifacts (the traffic interleaving)."""
        sinks: List[object] = [TraceSink(options, artifacts.trace)]
        if render is not None:
            sinks.append(RenderSink(render))
        if artifacts.out is not None:
            sinks.append(ChaosReportSink(artifacts.out))
        if artifacts.audit is not None:
            sinks.append(AuditSink(artifacts.audit))
        if options.ledger_dir:
            sinks.append(LedgerSink(options.ledger_dir, rules, self))
        return sinks
