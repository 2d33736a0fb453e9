"""Trace and metrics exporters.

Three formats:

* **JSONL** -- one span object per line, the archival/diff format the
  determinism tests compare byte-for-byte;
* **Chrome trace_event** -- a JSON document loadable in Perfetto or
  ``about:tracing``, so each simulated page's waterfall can be *seen*
  (one process per crawl shard, one thread per layer);
* **ASCII summary** -- the metrics registry rendered with the same
  table helpers as the paper's tables
  (:mod:`repro.analysis.render`).
"""

from __future__ import annotations

import json
from typing import Iterable, List, Sequence, TextIO

from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.tracer import Span

#: Stable thread ids per instrumented layer, so Perfetto rows line up
#: the same way in every trace.
CATEGORY_TIDS = {
    "crawler": 0,
    "browser": 1,
    "pool": 2,
    "dns": 3,
    "tls": 4,
    "h2": 5,
}
_OTHER_TID = 9


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """One canonical JSON object per line (sorted keys, stable order)."""
    return "".join(map(Span.to_line, spans))


def spans_from_jsonl(text: str) -> List[Span]:
    spans = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            spans.append(Span.from_dict(json.loads(line)))
    return spans


def _tid(span: Span) -> int:
    return CATEGORY_TIDS.get(span.category, _OTHER_TID)


def chrome_trace_events(spans: Sequence[Span]) -> List[dict]:
    """Spans as Chrome ``trace_event`` dicts (``ts``/``dur`` in µs)."""
    events: List[dict] = []
    shards = sorted({span.shard for span in spans})
    for shard in shards:
        events.append({
            "ph": "M", "name": "process_name", "pid": shard, "tid": 0,
            "args": {"name": f"crawl shard {shard}"},
        })
        for category, tid in sorted(CATEGORY_TIDS.items(),
                                    key=lambda kv: kv[1]):
            events.append({
                "ph": "M", "name": "thread_name", "pid": shard,
                "tid": tid, "args": {"name": category},
            })
    for span in spans:
        base = {
            "name": span.name,
            "cat": span.category or "misc",
            "pid": span.shard,
            "tid": _tid(span),
            "ts": round(span.start_ms * 1000.0, 3),
            "args": dict(span.attrs),
        }
        if span.finished and span.end_ms > span.start_ms:
            base["ph"] = "X"
            base["dur"] = round((span.end_ms - span.start_ms) * 1000.0, 3)
        else:
            base["ph"] = "i"
            base["s"] = "t"
            if not span.finished:
                base["args"]["unfinished"] = True
        events.append(base)
    return events


def chrome_trace_document(spans: Sequence[Span]) -> dict:
    return {
        "traceEvents": chrome_trace_events(spans),
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(out: TextIO, spans: Sequence[Span]) -> int:
    """Write the trace_event JSON to the open text file ``out``;
    returns the span count.

    Unlike span JSONL this cannot stream shard by shard: the document
    opens with one process-name block per shard that emitted a span,
    which is known only once the last shard is merged."""
    json.dump(chrome_trace_document(spans), out, sort_keys=True,
              separators=(",", ":"))
    out.write("\n")
    return len(spans)


def render_metrics_summary(registry: MetricsRegistry) -> str:
    """The registry as ASCII tables (counters, then histograms)."""
    from repro.analysis.render import render_table

    def labels_of(metric) -> str:
        return ",".join(f"{k}={v}" for k, v in metric.labels) or "-"

    scalar_rows = []
    histogram_rows = []
    for metric in registry.metrics():
        if isinstance(metric, Histogram):
            histogram_rows.append((
                metric.name, labels_of(metric), metric.count,
                f"{metric.mean:.1f}",
                f"{metric.percentile(0.5):.1f}",
                f"{metric.percentile(0.9):.1f}",
                f"{metric.max:.1f}" if metric.count else "-",
            ))
        else:
            value = metric.value
            scalar_rows.append((
                metric.name, labels_of(metric),
                f"{value:.2f}" if isinstance(value, float)
                and not float(value).is_integer() else f"{int(value)}",
            ))
    blocks = []
    if scalar_rows:
        blocks.append(render_table(
            "metrics -- counters and gauges",
            ["Metric", "Labels", "Value"], scalar_rows,
        ))
    if histogram_rows:
        blocks.append(render_table(
            "metrics -- histograms (ms)",
            ["Metric", "Labels", "Count", "Mean", "p50", "p90", "Max"],
            histogram_rows,
        ))
    if not blocks:
        return "(no metrics recorded)"
    return "\n\n".join(blocks)
