"""The sharded chaos runner: a traced crawl with faults armed.

A thin driver over the one shard executor
(:func:`repro.dataset.shard.merge_shards`): the same shard plan,
world/crawler seeds and shard-order merge of archives/spans/metrics/
audit as :meth:`~repro.dataset.shard.ParallelCrawler.crawl_traced`,
with :func:`~repro.dataset.shard.crawl_shard`'s ``chaos`` argument
arming a :class:`~repro.chaos.inject.FaultInjector` per shard and
pinning an explicit :class:`~repro.browser.retry.RetryPolicy` on the
browser context.  Each shard result carries its fault tallies (plain
JSON docs), which merge into a :class:`~repro.chaos.report.ChaosReport`
by counter addition, so the report is byte-identical at any ``--jobs``.

With an empty schedule the injector installs nothing, the retry
policy is never consulted (nothing fails in an unfaulted crawl
world), and the retry RNG is never drawn from -- so the archives and
audit stream come out byte-identical to a plain ``repro crawl`` of
the same parameters.  The CI non-perturbation gate holds this
invariant down to ``cmp``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List, Optional, Tuple

from repro.audit.reasons import ReasonCode
from repro.browser.retry import RetryPolicy
from repro.chaos.report import ChaosReport
from repro.chaos.schedule import FaultSchedule
from repro.dataset.crawler import CrawlResult
from repro.dataset.generator import DatasetConfig
from repro.dataset.shard import (
    CrawlParams,
    ShardResult,
    crawl_shard,
    generate_records,
    merge_shards,
    plan_shards,
)
from repro.telemetry import CrawlTrace

#: The default chaos retry policy: two deterministic exponential
#: retries with a little seeded jitter, loss retries on.
DEFAULT_RETRY_POLICY = RetryPolicy(
    max_retries=2,
    backoff_base_ms=120.0,
    backoff_multiplier=2.0,
    jitter_ms=40.0,
    retry_connection_loss=True,
    budget_ms=0.0,
)


#: Reasons counted as "a request went through a retry".
_RETRIED_REASONS = (
    ReasonCode.RETRY_BACKOFF.value,
    ReasonCode.MISS_RETRY_AFTER_GOAWAY.value,
)


class ChaosRunner:
    """Runs one fault schedule over a sharded crawl."""

    def __init__(
        self,
        config: DatasetConfig,
        params: Optional[CrawlParams] = None,
        schedule: Optional[FaultSchedule] = None,
        retry_policy: Optional[RetryPolicy] = None,
        shard_count: Optional[int] = None,
        jobs: int = 1,
    ) -> None:
        self.config = config
        self.params = params or CrawlParams()
        self.schedule = schedule or FaultSchedule()
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self.shards = plan_shards(config, shard_count)
        self.jobs = jobs

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def run(
        self,
        progress: Optional[Callable[[int, int], None]] = None,
        trace: bool = True,
        watch: Optional[Callable[[int, int, CrawlTrace], None]] = None,
    ) -> Tuple[CrawlResult, CrawlTrace, ChaosReport]:
        """Crawl all shards under the schedule; merge telemetry and
        tallies in shard order.  The audit collector is always on --
        the blast attribution and the jobs-determinism gate live
        there."""
        merged = CrawlResult()
        report = ChaosReport(
            policy=self.params.policy,
            schedule_source=self.schedule.source,
            sites=self.config.site_count,
            seed=self.config.seed,
            shards=len(self.shards),
        )

        def absorb(result: ShardResult) -> None:
            merged.archives.extend(result.payload.archives)
            report.absorb_tallies(result.faults)

        chaos = (self.schedule, self.retry_policy)
        # Plan before any fork, as ParallelCrawler._run does.
        generate_records(self.config)
        crawl_trace = merge_shards(
            crawl_shard,
            [(spec, self.params, (trace, True), chaos)
             for spec in self.shards],
            self.jobs, absorb, progress, watch,
        )
        self._finish_report(report, merged, crawl_trace)
        return merged, crawl_trace, report

    @staticmethod
    def _finish_report(report: ChaosReport, result: CrawlResult,
                       trace: CrawlTrace) -> None:
        retried = 0
        exhausted = 0
        for event in trace.audit:
            if event.reason in _RETRIED_REASONS:
                retried += 1
            elif event.reason == ReasonCode.RETRY_EXHAUSTED.value:
                exhausted += 1
        report.requests_retried = retried
        report.requests_exhausted = exhausted
        report.pages_attempted = result.attempted
        report.pages_failed = result.attempted - result.success_count
        report.connections_opened = sum(
            archive.new_connection_count() for archive in result.successes
        )


#: The policy sweep ``--compare-policies`` runs, unshared baseline
#: first.
COMPARE_POLICIES = ("none", "chromium", "firefox+origin", "ideal-origin")


def compare_policies(
    config: DatasetConfig,
    params: CrawlParams,
    schedule: FaultSchedule,
    retry_policy: RetryPolicy,
    policies=COMPARE_POLICIES,
    shard_count: Optional[int] = None,
    jobs: int = 1,
    progress: Optional[Callable[[str, int, int], None]] = None,
) -> List[Tuple[str, CrawlResult, ChaosReport]]:
    """Run the same schedule under each coalescing policy.

    This is the robustness-vs-savings tradeoff table: coalescing
    policies open fewer connections, but each lost connection takes
    more hostnames down with it (larger mean blast radius)."""
    rows: List[Tuple[str, CrawlResult, ChaosReport]] = []
    for policy in policies:
        runner = ChaosRunner(
            config,
            params=replace(params, policy=policy),
            schedule=schedule,
            retry_policy=retry_policy,
            shard_count=shard_count,
            jobs=jobs,
        )
        shard_progress = None
        if progress is not None:
            shard_progress = (
                lambda done, total, policy=policy:
                    progress(policy, done, total)
            )
        result, _, report = runner.run(progress=shard_progress,
                                       trace=False)
        rows.append((policy, result, report))
    return rows
