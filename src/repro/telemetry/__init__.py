"""``repro.telemetry`` -- simulated-clock tracing and unified metrics.

The simulator knows the ground truth of every DNS lookup, TLS
handshake, and HTTP/2 stream; this package makes that truth visible:

* :class:`~repro.telemetry.tracer.Tracer` records spans against the
  simulated clock (deterministic: same seed, byte-identical trace);
* :class:`~repro.telemetry.metrics.MetricsRegistry` holds a run's
  counters and histograms, the per-layer ``*Stats`` counters included
  (exported into it when a page load or crawl shard ends);
* :mod:`~repro.telemetry.exporters` writes JSONL, Chrome
  ``trace_event`` (Perfetto-loadable waterfalls), and ASCII summaries.

The spans are also the ground truth the §4.1 timeline reconstruction
is checked against (the Figure 2 oracle, ``tests/telemetry_validation.py``).

A :class:`Telemetry` is the one watch handle: the tracer, the
decision-audit log, the metrics registry and the phase recorder of one
simulated world (one clock).  Every layer that emits takes it -- from
the shard entry points down through the crawler, browser, dialers,
sessions, TLS channels, pool, resolver, fault injector, middlebox and
edge monitor -- and it is never ``None``: :data:`NULL_TELEMETRY` is the
default.  Each collector's own ``enabled`` flag is the one guard at
every emit site; the null collectors are nothing but that flag (and
an empty ``spans``/``events`` list).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, List, Optional, TextIO

from repro.audit.log import NULL_AUDIT, AuditEvent, AuditLog
from repro.obs.phases import NOT_APPLICABLE, NULL_PHASES, PhaseRecorder
from repro.telemetry.metrics import (  # noqa: F401
    Counter,
    Histogram,
    MetricsRegistry,
    RegistryStats,
)
from repro.telemetry.tracer import (  # noqa: F401
    NULL_TRACER,
    Span,
    Tracer,
)


class Telemetry:
    """Tracer + decision audit + metrics + phases for one world.

    A run is in one of three states:

    * *nothing collected* -- :data:`NULL_TELEMETRY`: every collector is
      disabled and its registry stays empty;
    * *metrics and phases only* (``--ledger``) -- ``trace`` and
      ``audit`` both False;
    * *tracing and/or audit on* -- either switch True.

    ``enabled`` is False only on :data:`NULL_TELEMETRY`; it guards the
    metrics registry, the one collector with no disabled form.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float], trace: bool = True,
                 audit: bool = True) -> None:
        self.tracer = Tracer(clock) if trace else NULL_TRACER
        self.audit = AuditLog(clock) if audit else NULL_AUDIT
        self.metrics = MetricsRegistry()
        #: Phase recorder of one browser profile; the world-level
        #: handle has none (see :meth:`for_profile`).
        self.phases = NULL_PHASES

    def for_profile(self, policy: str,
                    cohort: str = NOT_APPLICABLE) -> "Telemetry":
        """The handle one browser profile holds: this handle's tracer,
        audit log and registry, plus its own phase recorder labelled
        ``policy`` x ``cohort`` (recorders with the same labels share
        histograms).  :data:`NULL_TELEMETRY` returns itself."""
        if not self.enabled:
            return self
        return self._with(phases=PhaseRecorder(
            self.metrics, policy=policy, cohort=cohort))

    def phases_only(self) -> "Telemetry":
        """This handle with tracing and audit off: the same registry
        and phase recorder, for a layer that times phases but emits no
        spans or decisions (a traffic user's resolver)."""
        return self._with(tracer=NULL_TRACER, audit=NULL_AUDIT)

    def _with(self, **collectors) -> "Telemetry":
        """A copy of this handle with some collectors replaced."""
        view = copy.copy(self)
        vars(view).update(collectors)
        return view


class _NullTelemetry(Telemetry):
    """Collects nothing.  Its registry exists only so every handle has
    one; no layer writes it, because ``enabled`` is False."""

    enabled = False


#: The shared disabled handle every layer defaults to.
NULL_TELEMETRY = _NullTelemetry(clock=lambda: 0.0, trace=False,
                                audit=False)


@dataclass
class CrawlTrace:
    """Merged telemetry of a (possibly sharded, parallel) crawl.

    Spans and audit events are merged in shard order with globally
    renumbered ids, so the trace is identical whatever ``jobs`` count
    produced it.

    ``span_out``/``audit_out`` are open text files the merge streams
    each adopted shard's records to as JSONL lines (a pipeline run's
    ``.tmp`` artifacts, :mod:`repro.runtime.artifacts`).  Records stay
    in ``spans``/``audit`` only while ``keep_spans``/``keep_audit`` --
    for a caller that reads them after the run (``repro explain``, the
    Chrome trace export, the library API); otherwise each shard's
    records die with the shard.
    """

    spans: List[Span] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    audit: list = field(default_factory=list)
    span_out: Optional[TextIO] = None
    audit_out: Optional[TextIO] = None
    keep_spans: bool = True
    keep_audit: bool = True
    #: Records adopted so far: the renumbering offsets, and the counts
    #: the sinks report.
    span_count: int = 0
    event_count: int = 0

    def extend(self, spans: List[Span], shard: int) -> None:
        """Adopt one shard's spans: tag the shard, renumber ids after
        the ones already merged (a tracer numbers its spans 0..n-1,
        so ids and parent ids shift by the same offset)."""
        offset = self.span_count
        for span in spans:
            span.span_id += offset
            if span.parent_id is not None:
                span.parent_id += offset
            span.shard = shard
        self.span_count += len(spans)
        if self.span_out is not None:
            self.span_out.writelines(map(Span.to_line, spans))
        if self.keep_spans:
            self.spans.extend(spans)

    def extend_audit(self, events, shard: int) -> None:
        """Adopt one shard's audit events: tag the shard, renumber the
        sequence after the ones already merged."""
        offset = self.event_count
        for event in events:
            event.seq += offset
            event.shard = shard
        self.event_count += len(events)
        if self.audit_out is not None:
            self.audit_out.writelines(map(AuditEvent.to_line, events))
        if self.keep_audit:
            self.audit.extend(events)

    def adopt(self, result, shard: int) -> None:
        """Merge one shard's telemetry bundle (a
        :class:`~repro.dataset.shard.ShardResult`): spans, metrics
        and audit events."""
        self.extend(result.spans, shard=shard)
        self.metrics.absorb(result.metrics)
        self.extend_audit(result.events, shard=shard)

    # -- export -----------------------------------------------------------

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
    "RegistryStats",
    "Span",
    "Telemetry",
    "Tracer",
]
