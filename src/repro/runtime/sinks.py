"""Pluggable run sinks.

A sink consumes a finished :class:`~repro.runtime.workloads.RunOutcome`
and persists or renders one artifact: crawl cache entry, trace file,
metrics summary, audit JSONL, traffic aggregate, ledger record, or
the command's stdout tables.  Workloads assemble an *ordered* sink
list from the instrumentation options; the order is part of the CLI's
output contract (diagnostics interleave with stdout deterministically)
and must not be shuffled.
"""

from __future__ import annotations

from repro.audit.log import AuditEvent
from repro.runtime.console import diag
from repro.runtime.instrument import export_trace, finish_ledger


class CacheStoreSink:
    """Live crawls bypass cache *reads* but still store the merged
    archives so subsequent untraced runs hit the cache.  The entry
    was written while the crawl merged
    (:class:`~repro.runtime.workloads.CrawlWorkload`); this publishes
    it."""

    def __init__(self, cache) -> None:
        self.cache = cache

    def __call__(self, outcome) -> None:
        if self.cache is None:
            diag("cache: disabled")
            return
        self.cache.store(outcome.fingerprint)
        diag(f"cache: bypassed for tracing, stored "
             f"{self.cache.path_for(outcome.fingerprint)}")


class CacheStatusSink:
    """Cached crawls report how the lookup went and, on a miss,
    publish the entry the crawl wrote as it merged."""

    def __init__(self, cache) -> None:
        self.cache = cache

    def __call__(self, outcome) -> None:
        if self.cache is None:
            diag("cache: disabled")
            return
        if not outcome.cache_hit:
            self.cache.store(outcome.fingerprint)
        status = "hit" if outcome.cache_hit else "miss, stored"
        diag(f"cache: {status} "
             f"{self.cache.path_for(outcome.fingerprint)}")


class TraceSink:
    """Span artifact + optional metrics summary (``--trace`` /
    ``--metrics``); a no-op when neither was requested."""

    def __init__(self, options) -> None:
        self.options = options

    def __call__(self, outcome) -> None:
        export_trace(outcome.trace, self.options.trace_out,
                     self.options.metrics)


class AuditSink:
    """Canonical audit JSONL (``--audit OUT``)."""

    def __init__(self, out) -> None:
        self.out = out

    def __call__(self, outcome) -> None:
        events = outcome.trace.audit
        with open(self.out, "w", encoding="utf-8") as handle:
            handle.writelines(map(AuditEvent.to_line, events))
        diag(f"audit: {len(events)} events -> {self.out} "
             "(JSONL)")


class AggregateSink:
    """Traffic aggregate JSONL (``--out OUT``), byte-identical
    across ``--jobs``."""

    def __init__(self, out) -> None:
        self.out = out

    def __call__(self, outcome) -> None:
        with open(self.out, "w", encoding="utf-8") as handle:
            handle.write(outcome.result.to_jsonl())
        diag(f"aggregate: -> {self.out} (canonical JSONL)")


class ChaosReportSink:
    """Canonical blast-radius report JSONL (``chaos --out OUT``),
    byte-identical across ``--jobs``."""

    def __init__(self, out) -> None:
        self.out = out

    def __call__(self, outcome) -> None:
        report = outcome.extras["report"]
        with open(self.out, "w", encoding="utf-8") as handle:
            handle.write(report.to_jsonl())
        diag(f"report: -> {self.out} (canonical JSONL)")


class LedgerSink:
    """Append the run record (phases, headline, SLO verdicts)."""

    def __init__(self, ledger_dir, rules, workload) -> None:
        self.ledger_dir = ledger_dir
        self.rules = rules
        self.workload = workload

    def __call__(self, outcome) -> None:
        record = self.workload.build_record(outcome, self.rules)
        finish_ledger(self.ledger_dir, record)


class RenderSink:
    """The command's stdout rendering, positioned in the sink order
    exactly where the legacy CLI printed it."""

    def __init__(self, render) -> None:
        self.render = render

    def __call__(self, outcome) -> None:
        self.render(outcome)
