"""``repro audit-diff``: run-to-run decision comparison.

Compares two audit JSONL exports by their final per-request decision
events: which (page, hostname, path) requests changed how they were
served (decision), why (reason code), or with what status.  Both
inputs are validated against the closed taxonomy on parse, so a log
written by a different (newer, buggier) build cannot smuggle unknown
codes through the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.analysis.render import render_table
from repro.audit.log import AuditEvent, events_from_jsonl
from repro.audit.reconcile import DecisionKey, decision_index


@dataclass(frozen=True)
class DecisionChange:
    """One request whose audited verdict differs between the runs."""

    key: DecisionKey
    before: Tuple[str, str, object]  # (decision, reason, status)
    after: Tuple[str, str, object]


@dataclass
class AuditDiff:
    """The comparison of two decision streams."""

    changed: List[DecisionChange] = field(default_factory=list)
    only_in_a: List[DecisionKey] = field(default_factory=list)
    only_in_b: List[DecisionKey] = field(default_factory=list)
    common: int = 0

    @property
    def clean(self) -> bool:
        return not (self.changed or self.only_in_a or self.only_in_b)


def _verdict(event: AuditEvent) -> Tuple[str, str, object]:
    return (
        event.decision, event.reason, event.attrs.get("status", "")
    )


def diff_decisions(
    events_a: List[AuditEvent], events_b: List[AuditEvent]
) -> AuditDiff:
    """Compare the final decisions of two audit event streams."""
    index_a = decision_index(events_a)
    index_b = decision_index(events_b)
    diff = AuditDiff()
    for key in sorted(index_a):
        if key not in index_b:
            diff.only_in_a.append(key)
            continue
        diff.common += 1
        before = _verdict(index_a[key])
        after = _verdict(index_b[key])
        if before != after:
            diff.changed.append(
                DecisionChange(key=key, before=before, after=after)
            )
    for key in sorted(index_b):
        if key not in index_a:
            diff.only_in_b.append(key)
    return diff


def load_audit_jsonl(path) -> List[AuditEvent]:
    """Read one audit JSONL export, validating every reason code."""
    with open(path, "r", encoding="utf-8") as handle:
        return events_from_jsonl(handle.read())


def render_diff(diff: AuditDiff, label_a: str = "A",
                label_b: str = "B") -> str:
    """Human-readable comparison report (stdout content)."""
    if diff.clean:
        return (
            f"audit-diff: {diff.common} decisions compared, "
            "no changes"
        )
    sections: List[str] = []
    if diff.changed:
        rows = []
        for change in diff.changed:
            page, hostname, path = change.key
            rows.append([
                page, f"{hostname}{path}",
                "/".join(str(part) for part in change.before),
                "/".join(str(part) for part in change.after),
            ])
        sections.append(render_table(
            f"changed decisions ({len(diff.changed)})",
            ["page", "request", label_a, label_b],
            rows,
        ))
    for label, keys in ((label_a, diff.only_in_a),
                        (label_b, diff.only_in_b)):
        if keys:
            sections.append(render_table(
                f"requests only in {label} ({len(keys)})",
                ["page", "request"],
                [[page, f"{hostname}{path}"]
                 for page, hostname, path in keys],
            ))
    sections.append(
        f"audit-diff: {diff.common} decisions compared, "
        f"{len(diff.changed)} changed, "
        f"{len(diff.only_in_a)} only in {label_a}, "
        f"{len(diff.only_in_b)} only in {label_b}"
    )
    return "\n\n".join(sections)
