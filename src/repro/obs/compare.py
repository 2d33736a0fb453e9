"""``repro compare``: per-metric regression verdicts between two runs.

Compares every phase series' percentiles and every shared headline
metric of record B (candidate) against record A (baseline), with a
noise floor so bucketed-percentile jitter does not gate CI:

* a latency delta only counts when it exceeds
  ``max(abs_floor_ms, rel_floor * baseline)``;
* headline counters gate only when the two records share a config
  fingerprint (same world, same seed, same shard layout -- then any
  drift is a code-behaviour change); across different configs they
  are reported as informational rows instead.

Cross-config comparisons (e.g. a baseline cohort mix against a
fleet-ORIGIN one) may share *no* phase series at all -- the cohort
labels differ -- and still be meaningful through their headline
metrics; that case compares the headline with a note rather than
refusing.

Exit semantics (:attr:`CompareResult.exit_code`): 0 clean (possibly
with improvements), 1 at least one regression, 2 incomparable
(different schema or kind, or nothing shared -- neither a phase
series nor a headline metric).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.render import render_table
from repro.obs.ledger import RunRecord, histogram_from_doc

#: Default noise floors.
REL_FLOOR = 0.05
ABS_FLOOR_MS = 5.0

#: Quantiles gated per phase series.
COMPARE_QUANTILES = (0.5, 0.9, 0.99)

#: Headline metrics where an increase is a regression (when records
#: share a fingerprint).
WORSE_IF_HIGHER = frozenset({
    "pages_failed", "failed", "retries", "goaways", "mean_plt_ms",
    "dns_queries", "tls_handshakes", "new_connections",
    "edge_connections", "handshakes",
})
#: Headline metrics where a decrease is a regression.
WORSE_IF_LOWER = frozenset({
    "pages_succeeded", "completed", "dns_reduction",
    "validation_reduction", "resumed", "coalesced_requests",
})


@dataclass
class CompareRow:
    """One compared quantity."""

    metric: str
    group: str
    a: float
    b: float
    verdict: str  # regressed | improved | unchanged | changed | info

    @property
    def delta(self) -> float:
        return self.b - self.a


@dataclass
class CompareResult:
    rows: List[CompareRow] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    incomparable: Optional[str] = None

    @property
    def regressed(self) -> List[CompareRow]:
        return [row for row in self.rows if row.verdict == "regressed"]

    @property
    def exit_code(self) -> int:
        if self.incomparable is not None:
            return 2
        return 1 if self.regressed else 0


def _label_group(labels_key) -> str:
    parts = [f"{key}={value}" for key, value in labels_key
             if value != "-"]
    return " ".join(parts) if parts else "-"


def compare_records(
    a: RunRecord,
    b: RunRecord,
    rel_floor: float = REL_FLOOR,
    abs_floor_ms: float = ABS_FLOOR_MS,
) -> CompareResult:
    """Compare candidate ``b`` against baseline ``a``."""
    result = CompareResult()
    schema_a = a.meta.get("schema")
    schema_b = b.meta.get("schema")
    if schema_a != schema_b:
        result.incomparable = (
            f"schema mismatch: {schema_a} vs {schema_b}"
        )
        return result
    if a.kind != b.kind:
        result.incomparable = (
            f"kind mismatch: {a.kind!r} vs {b.kind!r}"
        )
        return result
    same_config = bool(a.fingerprint) \
        and a.fingerprint == b.fingerprint

    phases_a = a.phase_map()
    phases_b = b.phase_map()
    common = sorted(set(phases_a) & set(phases_b),
                    key=lambda key: (_phase_order(a, key), key))
    if not common:
        if not (set(a.headline) & set(b.headline)):
            result.incomparable = (
                "nothing shared: no overlapping phase series or "
                "headline metrics"
            )
            return result
        result.notes.append(
            "no overlapping phase series; latency percentiles not "
            "compared"
        )
    for key in sorted(set(phases_a) - set(phases_b)):
        result.notes.append(
            f"series only in baseline: {key[0]} [{_label_group(key[1])}]"
        )
    for key in sorted(set(phases_b) - set(phases_a)):
        result.notes.append(
            f"series only in candidate: {key[0]} [{_label_group(key[1])}]"
        )

    for key in common:
        name, labels_key = key
        group = _label_group(labels_key)
        hist_a = histogram_from_doc(phases_a[key])
        hist_b = histogram_from_doc(phases_b[key])
        for quantile in COMPARE_QUANTILES:
            pa = hist_a.percentile(quantile)
            pb = hist_b.percentile(quantile)
            floor = max(abs_floor_ms, rel_floor * abs(pa))
            if pb - pa > floor:
                verdict = "regressed"
            elif pa - pb > floor:
                verdict = "improved"
            else:
                verdict = "unchanged"
            result.rows.append(CompareRow(
                metric=f"{name} p{quantile * 100:g}",
                group=group, a=pa, b=pb, verdict=verdict,
            ))
        if hist_a.count != hist_b.count:
            # Sample-count drift is behavioural, not a latency
            # regression; surface it without gating.
            result.rows.append(CompareRow(
                metric=f"{name} count", group=group,
                a=hist_a.count, b=hist_b.count, verdict="changed",
            ))

    shared_metrics = sorted(
        set(a.headline) & set(b.headline)
    )
    if not same_config and shared_metrics:
        result.notes.append(
            "config fingerprints differ; headline deltas are "
            "informational only"
        )
    for metric in shared_metrics:
        va = float(a.headline[metric])
        vb = float(b.headline[metric])
        if va == vb:
            continue
        verdict = "info"
        if same_config:
            floor = abs_floor_ms if metric.endswith("_ms") \
                else rel_floor * abs(va)
            if metric in WORSE_IF_HIGHER and vb - va > floor:
                verdict = "regressed"
            elif metric in WORSE_IF_LOWER and va - vb > floor:
                verdict = "regressed"
            elif metric in WORSE_IF_HIGHER | WORSE_IF_LOWER:
                verdict = "improved" if (
                    (metric in WORSE_IF_HIGHER and vb < va)
                    or (metric in WORSE_IF_LOWER and vb > va)
                ) else "changed"
            else:
                verdict = "changed"
        result.rows.append(CompareRow(
            metric=metric, group="headline", a=va, b=vb,
            verdict=verdict,
        ))
    return result


def _phase_order(record: RunRecord, key) -> int:
    for index, doc in enumerate(record.phases):
        if (doc["name"], tuple(sorted(doc["labels"].items()))) == key:
            return index
    return len(record.phases)


def render_compare(
    result: CompareResult,
    label_a: str,
    label_b: str,
    only_changed: bool = False,
) -> str:
    """ASCII verdict table (stdout of ``repro compare``)."""
    if result.incomparable is not None:
        return f"incomparable: {result.incomparable}\n"
    rows = result.rows
    if only_changed:
        rows = [row for row in rows if row.verdict != "unchanged"]
    table_rows = [
        [row.metric, row.group, f"{row.a:g}", f"{row.b:g}",
         f"{row.delta:+g}", row.verdict]
        for row in rows
    ]
    sections = []
    if table_rows:
        sections.append(render_table(
            f"compare: {label_a} (A) vs {label_b} (B)",
            ["metric", "group", "A", "B", "delta", "verdict"],
            table_rows,
        ))
    else:
        sections.append(
            f"compare: {label_a} (A) vs {label_b} (B): no differences"
        )
    for note in result.notes:
        sections.append(f"note: {note}")
    regressed = result.regressed
    if regressed:
        names = ", ".join(
            f"{row.metric} [{row.group}]" for row in regressed
        )
        sections.append(f"REGRESSED ({len(regressed)}): {names}")
    else:
        sections.append("clean: no regressions above the noise floor")
    return "\n\n".join(sections) + "\n"
