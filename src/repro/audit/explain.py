"""Rendering for ``repro explain``: annotated waterfalls plus the
aggregate miss-reason breakdown tables.

The waterfall is the Figure 2 timeline with one extra column: the
audited decision (how the request was served) and its
:class:`~repro.audit.reasons.ReasonCode`.  The breakdown tables
decompose the measured-vs-ideal Figure 3 gaps into the named causes
computed by :mod:`repro.audit.reconcile`.  Both are per page, so a
report is a fold (:class:`Explanation`): each shard's pages are
reconciled against that shard's own audit events as the shard merges,
and only the archives the report draws are kept.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.render import render_table
from repro.analysis.waterfall import render_waterfall
from repro.audit.log import AuditEvent
from repro.audit.reasons import REASON_DESCRIPTIONS, ReasonCode
from repro.audit.reconcile import (
    METRICS,
    DecisionKey,
    GapBreakdown,
    decision_index,
    reconcile_result,
)
from repro.web.har import HarArchive, HarEntry


def _annotator(
    archive: HarArchive, decisions: Dict[DecisionKey, AuditEvent]
):
    def annotate(entry: HarEntry) -> str:
        event = decisions.get(
            (archive.page.url, entry.hostname, entry.path)
        )
        if event is None:
            return "?"
        return f"{event.decision}:{event.reason}"

    return annotate


def render_page_decisions(
    archive: HarArchive,
    decisions: Dict[DecisionKey, AuditEvent],
    width: int = 56,
    limit: Optional[int] = None,
) -> str:
    """One page's annotated waterfall, headed by its URL and verdict."""
    page = archive.page
    status = "ok" if page.success else \
        f"failed ({page.failure_reason or 'unknown'})"
    header = (
        f"page {page.url} [{status}] "
        f"requests={len(archive.entries)} "
        f"extra_tls={page.extra_tls_connections}"
    )
    if not archive.entries:
        return f"{header}\n(no requests recorded)"
    return "\n".join([
        header,
        render_waterfall(
            archive, width=width, limit=limit,
            annotate=_annotator(archive, decisions),
        ),
    ])


def render_breakdown_table(breakdown: GapBreakdown) -> str:
    """One metric's reconciliation as a table of named buckets."""
    rows: List[Sequence[object]] = []
    for bucket, counter in (
        ("baseline", breakdown.baseline),
        ("excess", breakdown.excess),
        ("credit", breakdown.credits),
    ):
        for code, count in sorted(
            counter.items(), key=lambda item: (-item[1], item[0])
        ):
            rows.append([
                bucket, code, count,
                REASON_DESCRIPTIONS[ReasonCode(code)],
            ])
    rows.append([
        "total",
        f"measured={breakdown.measured} ideal={breakdown.ideal}",
        breakdown.gap,
        "gap = sum(excess) - sum(credits)"
        + ("" if breakdown.reconciles() else "  [DOES NOT RECONCILE]"),
    ])
    title = (
        f"{breakdown.metric} gap vs ideal-{breakdown.model}: "
        f"measured {breakdown.measured} - ideal {breakdown.ideal} "
        f"= {breakdown.gap}"
    )
    return render_table(
        title, ["bucket", "reason", "count", "description"], rows
    )


class Explanation:
    """The ``repro explain`` report, folded one shard at a time
    (:meth:`add`): the first ``pages`` archives, each with its audited
    decisions, for the waterfalls (``None`` keeps every one); how many
    pages there were; and both models' breakdowns over every
    successful page."""

    def __init__(self, pages: Optional[int] = None) -> None:
        self.pages = pages
        self.shown: List[
            Tuple[HarArchive, Dict[DecisionKey, AuditEvent]]] = []
        self.attempted = 0
        self.breakdowns = reconcile_result((), {})

    def add(self, archives: Sequence[HarArchive],
            events: Iterable[AuditEvent]) -> None:
        """Fold a shard's archives against the shard's audit events.
        Page URLs are unique per crawl, so a shard's decision index
        holds every decision its pages need."""
        decisions = decision_index(events)
        for archive in archives:
            self.attempted += 1
            if self.pages is None or len(self.shown) < self.pages:
                url = archive.page.url
                keys = ((url, entry.hostname, entry.path)
                        for entry in archive.entries)
                self.shown.append((archive, {
                    key: decisions[key] for key in keys
                    if key in decisions}))
        shard = reconcile_result(archives, decisions)
        for model, by_metric in shard.items():
            for metric, breakdown in by_metric.items():
                self.breakdowns[model][metric].absorb(breakdown)

    def render(self, metrics: Sequence[str] = METRICS) -> str:
        """Waterfalls, then one breakdown table per model and metric."""
        sections = [render_page_decisions(archive, decisions)
                    for archive, decisions in self.shown]
        hidden = self.attempted - len(self.shown)
        if hidden:
            sections.append(
                f"({hidden} more pages not shown; "
                "use --pages to render them)"
            )
        for by_metric in self.breakdowns.values():
            for metric in metrics:
                sections.append(render_breakdown_table(by_metric[metric]))
        return "\n\n".join(sections)


def render_taxonomy() -> str:
    """The full reason-code taxonomy as a table (for the docs and
    ``repro explain --taxonomy``)."""
    from repro.audit.reasons import taxonomy_table

    return render_table(
        "reason-code taxonomy",
        ["code", "description"],
        taxonomy_table(),
    )
