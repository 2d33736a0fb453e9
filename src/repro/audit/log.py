"""The decision-audit log.

One :class:`AuditLog` per simulated world records every
coalescing-relevant decision as a typed :class:`AuditEvent` carrying a
:class:`~repro.audit.reasons.ReasonCode`.  Like spans, events are
timestamped on the simulated clock and sequence-numbered in emission
order, so a shard's log is deterministic and shard logs merge in shard
order into a stream that is byte-identical whatever ``--jobs`` count
produced it.

:data:`NULL_AUDIT` is the shared disabled instance, mirroring
``NULL_TRACER``: a flag (``enabled`` False) and an empty ``events``
list, with no ``record`` method -- every decision point checks
``audit.enabled`` before recording.  Layers reach it through
:data:`~repro.telemetry.NULL_TELEMETRY`.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterable, List, Optional

from repro.audit.reasons import ReasonCode, reason_code
from repro.audit.record import SlottedRecord, canonical_json, json_str


class AuditEvent(SlottedRecord):
    """One recorded decision.

    ``kind`` names the decision point (``decision`` is the final
    per-request verdict; ``lookup``/``speculative`` come from the
    pool; ``dns``/``tls``/``h2``/``middlebox`` from their layers),
    ``reason`` is the taxonomy code, and ``decision`` (on request
    events) is how the request was ultimately served.
    """

    __slots__ = ("seq", "kind", "reason", "at_ms", "page", "hostname",
                 "path", "decision", "shard", "attrs")

    def __init__(self, seq: int, kind: str, reason: str, at_ms: float,
                 page: str = "", hostname: str = "", path: str = "",
                 decision: str = "", shard: int = 0,
                 attrs: Optional[Dict[str, object]] = None) -> None:
        self.seq = seq
        self.kind = kind
        self.reason = reason
        self.at_ms = at_ms
        self.page = page
        self.hostname = hostname
        self.path = path
        self.decision = decision
        self.shard = shard
        self.attrs = {} if attrs is None else attrs

    def to_dict(self) -> dict:
        doc = {
            "seq": self.seq,
            "kind": self.kind,
            "reason": self.reason,
            "at_ms": round(self.at_ms, 6),
            "shard": self.shard,
        }
        if self.page:
            doc["page"] = self.page
        if self.hostname:
            doc["hostname"] = self.hostname
        if self.path:
            doc["path"] = self.path
        if self.decision:
            doc["decision"] = self.decision
        if self.attrs:
            doc["attrs"] = self.attrs
        return doc

    def to_line(self) -> str:
        """The event's canonical JSONL line: ``canonical_json(
        self.to_dict())`` plus the newline, written out field by field
        (keys already sorted, empty optional fields omitted) so no
        dict is built per event."""
        return "".join((
            '{"at_ms":%r' % round(self.at_ms, 6),
            ',"attrs":' + canonical_json(self.attrs) if self.attrs else "",
            ',"decision":' + json_str(self.decision) if self.decision else "",
            ',"hostname":' + json_str(self.hostname) if self.hostname else "",
            ',"kind":' + json_str(self.kind),
            ',"page":' + json_str(self.page) if self.page else "",
            ',"path":' + json_str(self.path) if self.path else "",
            ',"reason":%s,"seq":%r,"shard":%r}\n' % (
                json_str(self.reason), self.seq, self.shard),
        ))

    @classmethod
    def from_dict(cls, doc: dict) -> "AuditEvent":
        return cls(
            seq=int(doc["seq"]),
            kind=str(doc["kind"]),
            reason=reason_code(str(doc["reason"])).value,
            at_ms=float(doc["at_ms"]),
            page=str(doc.get("page", "")),
            hostname=str(doc.get("hostname", "")),
            path=str(doc.get("path", "")),
            decision=str(doc.get("decision", "")),
            shard=int(doc.get("shard", 0)),
            attrs=dict(doc.get("attrs", {})),
        )

    @property
    def code(self) -> ReasonCode:
        return ReasonCode(self.reason)


class AuditLog:
    """Collects :class:`AuditEvent` against a simulated clock."""

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.events: List[AuditEvent] = []

    def record(
        self,
        kind: str,
        reason: ReasonCode,
        page: str = "",
        hostname: str = "",
        path: str = "",
        decision: str = "",
        **attrs,
    ) -> AuditEvent:
        event = AuditEvent(
            len(self.events), kind, ReasonCode(reason).value,
            self._clock(), page, hostname, path, decision, 0, attrs,
        )
        self.events.append(event)
        return event


class NullAuditLog:
    """The disabled log: ``enabled`` is False and it holds no events."""

    enabled = False
    events: List[AuditEvent] = []


#: The shared disabled instance.
NULL_AUDIT = NullAuditLog()


def events_to_jsonl(events: Iterable[AuditEvent]) -> str:
    """Canonical JSONL: sorted keys, compact separators, one event per
    line -- byte-identical for identical event streams."""
    return "".join(map(AuditEvent.to_line, events))


def events_from_jsonl(text: str) -> List[AuditEvent]:
    """Parse :func:`events_to_jsonl` output, validating every reason
    code against the closed taxonomy
    (:class:`~repro.audit.reasons.UnknownReasonCode` on violation)."""
    events = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            events.append(AuditEvent.from_dict(json.loads(line)))
    return events
