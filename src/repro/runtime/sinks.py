"""Pluggable run sinks.

A sink consumes a finished :class:`~repro.runtime.workloads.RunOutcome`
and persists or renders one artifact: crawl cache entry, trace file,
metrics summary, audit JSONL, traffic aggregate, ledger record, or
the command's stdout tables.  A file artifact was opened before the
run (:mod:`repro.runtime.artifacts`); its sink publishes it.
Workloads assemble an *ordered* sink list from the instrumentation
options; the order is part of the CLI's output contract (diagnostics
interleave with stdout deterministically) and must not be shuffled.
"""

from __future__ import annotations

from repro.runtime.console import diag
from repro.runtime.instrument import finish_ledger
from repro.telemetry.exporters import write_chrome_trace


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
    ``--metrics``); a no-op when neither was requested.  Span JSONL
    was streamed as the shards merged; a Chrome trace is written
    here, from the spans the run kept."""

    def __init__(self, options, artifact) -> None:
        self.options = options
        self.artifact = artifact

    def __call__(self, outcome) -> None:
        trace, artifact = outcome.trace, self.artifact
        if artifact is not None:
            if self.options.trace_jsonl:
                artifact.publish()
                diag(f"trace: {trace.span_count} spans -> "
                     f"{artifact.path} (span JSONL)")
            else:
                count = write_chrome_trace(artifact.handle, trace.spans)
                artifact.publish()
                diag(f"trace: {count} spans -> {artifact.path} "
                     "(Chrome trace_event; load in Perfetto or "
                     "about:tracing)")
        if self.options.metrics:
            print(trace.metrics_summary())
            print()


class AuditSink:
    """Canonical audit JSONL (``--audit OUT``), streamed as the shards
    merged."""

    def __init__(self, artifact) -> None:
        self.artifact = artifact

    def __call__(self, outcome) -> None:
        self.artifact.publish()
        diag(f"audit: {outcome.trace.event_count} events -> "
             f"{self.artifact.path} (JSONL)")


class AggregateSink:
    """Traffic aggregate JSONL (``--out OUT``), byte-identical
    across ``--jobs``."""

    def __init__(self, artifact) -> None:
        self.artifact = artifact

    def __call__(self, outcome) -> None:
        self.artifact.handle.write(outcome.result.to_jsonl())
        self.artifact.publish()
        diag(f"aggregate: -> {self.artifact.path} (canonical JSONL)")


class ChaosReportSink:
    """Canonical blast-radius report JSONL (``chaos --out OUT``),
    byte-identical across ``--jobs``."""

    def __init__(self, artifact) -> None:
        self.artifact = artifact

    def __call__(self, outcome) -> None:
        self.artifact.handle.write(outcome.result.to_jsonl())
        self.artifact.publish()
        diag(f"report: -> {self.artifact.path} (canonical JSONL)")


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
