"""The sharded chaos run: a traced crawl with faults armed.

:func:`run_chaos` is the one crawl driver
(:func:`repro.dataset.shard.crawl_shards`) with its ``chaos`` argument
set: :func:`~repro.dataset.shard.crawl_shard` arms a
:class:`~repro.chaos.inject.FaultInjector` per shard and pins an
explicit :class:`~repro.browser.retry.RetryPolicy` on the browser
context.  Each shard returns its fault tallies (plain JSON docs),
which fold into a :class:`~repro.chaos.report.ChaosReport` by counter
addition in shard order as the merge absorbs the shard, so the report
is byte-identical at any ``--jobs``.  The report is also the run's
page sink: it counts pages attempted and failed and connections opened
as each shard merges, so a chaos run keeps no archive.
:func:`compare_policies` is the same run once per coalescing policy.

With an empty schedule the injector installs nothing, the retry
policy is never consulted (nothing fails in an unfaulted crawl
world), and the retry RNG is never drawn from -- so the archives and
audit stream come out byte-identical to a plain ``repro crawl`` of
the same parameters.  The digest row ``chaos-empty-schedule`` holds
this invariant (its ``same_as`` names the plain crawl's audit).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.browser.retry import RetryPolicy
from repro.chaos.report import ChaosReport
from repro.chaos.schedule import FaultSchedule
from repro.dataset.crawler import CrawlParams
from repro.dataset.shard import ShardResult, ShardSpec, crawl_shards
from repro.telemetry import CrawlTrace

def run_chaos(
    shards: Sequence[ShardSpec],
    params: CrawlParams,
    schedule: FaultSchedule,
    retry_policy: RetryPolicy,
    jobs: int,
    collect: Optional[Tuple[bool, bool]] = None,
    watch: Optional[Callable[[int, int, CrawlTrace], None]] = None,
    crawl_trace: Optional[CrawlTrace] = None,
    pages=None,
) -> Tuple[CrawlTrace, ChaosReport]:
    """Crawl all shards under ``schedule``; merge telemetry, tallies,
    retry counts and page counts in shard order.  ``collect`` is
    :func:`~repro.dataset.shard.crawl_shard`'s (``None`` collects
    nothing: the report needs no telemetry); ``watch`` and
    ``crawl_trace`` are :func:`~repro.dataset.shard.merge_shards`'.
    ``pages`` is a second page sink handed every archive as its shard
    merges (a :class:`~repro.dataset.crawler.CrawlResult` keeps them,
    a :class:`~repro.dataset.characterize.CrawlFold` folds the ledger
    headline); by default only the report sees them."""
    config = shards[0].config
    report = ChaosReport(
        policy=params.policy,
        schedule_source=schedule.source,
        sites=config.site_count,
        seed=config.seed,
        shards=len(shards),
    )

    def on_shard(shard: ShardResult) -> None:
        report.absorb_tallies(shard.faults)
        report.requests_retried += shard.requests_retried
        report.requests_exhausted += shard.requests_exhausted
        if pages is not None:
            for archive in shard.payload.archives:
                pages.add(archive)

    _, crawl_trace = crawl_shards(
        shards, params, jobs, collect=collect,
        chaos=(schedule, retry_policy), watch=watch,
        crawl_trace=crawl_trace, on_shard=on_shard, pages=report,
    )
    return crawl_trace, report


#: The policy sweep ``--compare-policies`` runs, unshared baseline
#: first.
COMPARE_POLICIES = ("none", "chromium", "firefox+origin", "ideal-origin")


def compare_policies(
    shards: Sequence[ShardSpec],
    params: CrawlParams,
    schedule: FaultSchedule,
    retry_policy: RetryPolicy,
    jobs: int,
) -> List[Tuple[str, ChaosReport]]:
    """Run the same schedule under each of :data:`COMPARE_POLICIES`:
    the robustness-vs-savings table (connections opened against
    hostnames lost per lost connection)."""
    rows: List[Tuple[str, ChaosReport]] = []
    for policy in COMPARE_POLICIES:
        _, report = run_chaos(
            shards, replace(params, policy=policy), schedule,
            retry_policy, jobs,
        )
        rows.append((policy, report))
    return rows
