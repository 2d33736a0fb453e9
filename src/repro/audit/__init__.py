"""``repro.audit`` -- the coalescing decision-audit subsystem.

Three pieces:

* :mod:`~repro.audit.reasons` -- the closed :class:`ReasonCode`
  taxonomy every decision point emits;
* :mod:`~repro.audit.log` -- the :class:`AuditLog` event stream that
  rides the telemetry plumbing (deterministic under ``--jobs``,
  merged in shard order, canonical JSONL export);
* :mod:`~repro.audit.reconcile` -- the exact decomposition of the
  measured-vs-ideal Figure 3 gaps into named causes, with
  :mod:`~repro.audit.explain` rendering it and
  :mod:`~repro.audit.diff` comparing runs.
"""

from repro.audit.log import (  # noqa: F401
    NULL_AUDIT,
    AuditEvent,
    AuditLog,
    events_from_jsonl,
    events_to_jsonl,
)
from repro.audit.reasons import (  # noqa: F401
    REASON_DESCRIPTIONS,
    ReasonCode,
    UnknownReasonCode,
    reason_code,
    taxonomy_table,
)

__all__ = [
    "AuditEvent",
    "AuditLog",
    "NULL_AUDIT",
    "REASON_DESCRIPTIONS",
    "ReasonCode",
    "UnknownReasonCode",
    "events_from_jsonl",
    "events_to_jsonl",
    "reason_code",
    "taxonomy_table",
]
