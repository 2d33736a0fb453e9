"""Simulated-clock span tracing.

A :class:`Span` is a named interval on the **simulated** clock
(:mod:`repro.netsim.clock` is the only time source), so traces of a
seeded run are bit-for-bit deterministic: same seed, same spans, same
ids, same timestamps -- regardless of wall-clock, host, or how many
worker processes crawled the shards.

The callback-driven simulator cannot use context managers for its
spans (a fetch begins in one event and ends many events later), so the
API is explicit: :meth:`Tracer.begin` returns the span,
:meth:`Tracer.end` closes it.  When tracing is disabled the layer
holds :data:`NULL_TRACER`, which is only a flag: every emit site
checks ``tracer.enabled`` (or holds a span only a live tracer handed
out) before calling, so a disabled hot path costs one attribute load.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.audit.record import SlottedRecord, canonical_json, json_str


class Span(SlottedRecord):
    """One traced interval (or instant) in simulated milliseconds."""

    #: ``shard`` is the crawl shard that produced the span; merged
    #: traces keep spans from different shards on separate (pid)
    #: tracks because each shard's simulated clock starts at zero.
    __slots__ = ("span_id", "name", "category", "start_ms", "end_ms",
                 "parent_id", "shard", "attrs")

    def __init__(self, span_id: int, name: str, category: str,
                 start_ms: float, end_ms: float = -1.0,
                 parent_id: Optional[int] = None, shard: int = 0,
                 attrs: Optional[Dict[str, object]] = None) -> None:
        self.span_id = span_id
        self.name = name
        self.category = category
        self.start_ms = start_ms
        self.end_ms = end_ms
        self.parent_id = parent_id
        self.shard = shard
        self.attrs = {} if attrs is None else attrs

    @property
    def finished(self) -> bool:
        return self.end_ms >= 0.0

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "cat": self.category,
            "start": self.start_ms,
            "end": self.end_ms,
            "parent": self.parent_id,
            "shard": self.shard,
            "attrs": self.attrs,
        }

    def to_line(self) -> str:
        """The span's canonical JSONL line: ``canonical_json(
        self.to_dict())`` plus the newline, written out field by field
        (keys already sorted) so no dict is built per span."""
        return (
            '{"attrs":%s,"cat":%s,"end":%r,"id":%r,"name":%s,'
            '"parent":%s,"shard":%r,"start":%r}\n' % (
                canonical_json(self.attrs) if self.attrs else "{}",
                json_str(self.category), self.end_ms, self.span_id,
                json_str(self.name),
                "null" if self.parent_id is None else self.parent_id,
                self.shard, self.start_ms,
            )
        )

    @classmethod
    def from_dict(cls, doc: dict) -> "Span":
        return cls(
            span_id=doc["id"],
            name=doc["name"],
            category=doc["cat"],
            start_ms=doc["start"],
            end_ms=doc["end"],
            parent_id=doc["parent"],
            shard=doc.get("shard", 0),
            attrs=dict(doc.get("attrs", {})),
        )


class Tracer:
    """Collects spans against a simulated clock callable."""

    enabled = True

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self.spans: List[Span] = []
        self._next_id = 0

    def begin(self, name: str, category: str = "",
              parent: Optional[Span] = None, **attrs) -> Span:
        span = Span(
            self._next_id, name, category, self._clock(), -1.0,
            parent.span_id if parent is not None else None, 0, attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def end(self, span: Span, **attrs) -> Span:
        if span.attrs is not attrs:
            span.attrs.update(attrs)
        if not span.finished:
            span.end_ms = self._clock()
        return span

    def instant(self, name: str, category: str = "",
                parent: Optional[Span] = None, **attrs) -> Span:
        span = self.begin(name, category, parent=parent, **attrs)
        span.end_ms = span.start_ms
        return span


class NullTracer:
    """The disabled tracer: ``enabled`` is False and it holds no
    spans.  It has no methods; nothing calls one without checking
    ``enabled`` first."""

    enabled = False
    spans: List[Span] = []


NULL_TRACER = NullTracer()
