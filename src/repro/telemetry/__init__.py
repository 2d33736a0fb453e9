"""``repro.telemetry`` -- simulated-clock tracing and unified metrics.

The simulator knows the ground truth of every DNS lookup, TLS
handshake, and HTTP/2 stream; this package makes that truth visible:

* :class:`~repro.telemetry.tracer.Tracer` records spans against the
  simulated clock (deterministic: same seed, byte-identical trace);
* :class:`~repro.telemetry.metrics.MetricsRegistry` unifies the
  per-layer counters the old ``*Stats`` dataclasses kept ad-hoc;
* :mod:`~repro.telemetry.exporters` writes JSONL, Chrome
  ``trace_event`` (Perfetto-loadable waterfalls), and ASCII summaries.

The spans are also the ground truth the §4.1 timeline reconstruction
is checked against (the Figure 2 oracle, ``tests/telemetry_validation.py``).

A :class:`Telemetry` bundles one tracer + one registry for one
simulated world (one clock); :data:`NULL_TELEMETRY` is the disabled
instance every layer defaults to, with no-op tracing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.telemetry.metrics import (  # noqa: F401
    Counter,
    Histogram,
    MetricsRegistry,
    RegistryStats,
)
from repro.telemetry.tracer import (  # noqa: F401
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
)


class Telemetry:
    """Tracer + metrics + decision audit for one simulated world.

    ``trace`` and ``audit`` default to ``enabled`` but can be toggled
    independently, so an audited crawl does not have to pay for span
    collection (and vice versa).
    """

    def __init__(self, clock: Callable[[], float],
                 enabled: bool = True,
                 trace: Optional[bool] = None,
                 audit: Optional[bool] = None) -> None:
        from repro.audit.log import NULL_AUDIT, AuditLog

        trace_on = enabled if trace is None else trace
        audit_on = enabled if audit is None else audit
        self.enabled = trace_on or audit_on
        self.tracer = Tracer(clock) if trace_on else NULL_TRACER
        self.audit = AuditLog(clock) if audit_on else NULL_AUDIT
        self.metrics = MetricsRegistry()


#: The shared disabled instance; its registry is never exported.
NULL_TELEMETRY = Telemetry(clock=lambda: 0.0, enabled=False)


@dataclass
class CrawlTrace:
    """Merged telemetry of a (possibly sharded, parallel) crawl.

    Spans and audit events are merged in shard order with globally
    renumbered ids, so the trace is identical whatever ``jobs`` count
    produced it.
    """

    spans: List[Span] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    audit: list = field(default_factory=list)

    def extend(self, spans: List[Span], shard: int) -> None:
        """Adopt one shard's spans: tag the shard, renumber ids after
        the ones already merged (a tracer numbers its spans 0..n-1,
        so ids and parent ids shift by the same offset)."""
        offset = len(self.spans)
        for span in spans:
            span.span_id += offset
            if span.parent_id is not None:
                span.parent_id += offset
            span.shard = shard
        self.spans.extend(spans)

    def extend_audit(self, events, shard: int) -> None:
        """Adopt one shard's audit events: tag the shard, renumber the
        sequence after the ones already merged."""
        offset = len(self.audit)
        for event in events:
            event.seq += offset
            event.shard = shard
        self.audit.extend(events)

    def adopt(self, result, shard: int) -> None:
        """Merge one shard's telemetry bundle (a
        :class:`~repro.dataset.shard.ShardResult`): spans, metrics
        snapshot and audit events."""
        self.extend(result.spans, shard=shard)
        self.metrics.absorb(result.metrics)
        self.extend_audit(result.events, shard=shard)

    # -- export -----------------------------------------------------------

    def write_chrome_trace(self, path) -> int:
        from repro.telemetry.exporters import write_chrome_trace

        return write_chrome_trace(path, self.spans)

    def metrics_summary(self) -> str:
        from repro.telemetry.exporters import render_metrics_summary

        return render_metrics_summary(self.metrics)


__all__ = [
    "Counter",
    "CrawlTrace",
    "Histogram",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "NullTracer",
    "RegistryStats",
    "Span",
    "Telemetry",
    "Tracer",
]
