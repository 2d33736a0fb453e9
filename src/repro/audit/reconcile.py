"""Decomposing the measured-vs-ideal gap into named causes.

The Figure 3 model (:mod:`repro.core.coalescing`) says how many DNS
queries, TLS handshakes, and certificate validations a page *should*
have needed under ideal coalescing; the crawl says how many it *did*.
This module reconciles the two exactly: every measured spend and every
ideal allowance is attributed to a :class:`~repro.audit.reasons
.ReasonCode` bucket such that

* ``measured == sum(baseline) + sum(excess)`` and
* ``ideal    == sum(baseline) + sum(credits)``

hold by construction, so ``gap == sum(excess) - sum(credits)`` is an
identity, not an estimate.  *Baseline* buckets are the spends the
model itself allows (the first handshake/query per service, labelled
by the service boundary that makes it necessary); *excess* buckets are
repeat spends labelled by the audited per-request decision reason;
*credit* buckets are ideal allowances the crawl never spent (cached,
cleartext, or coalesced-away services).

The measured side counts what Figure 3's measured series count
(:meth:`~repro.web.har.HarArchive.dns_query_count`,
:meth:`~repro.web.har.HarArchive.tls_connection_count`), and the ideal
side is the very partition the Figure 3 model counts
(:func:`repro.core.coalescing.service_partition`), which is what makes
the reconciliation exact against :func:`repro.core.predictions.figure3`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.audit.log import AuditEvent
from repro.audit.reasons import ReasonCode
from repro.core.coalescing import service_partition
from repro.core.grouping import ServiceGrouper, by_asn, by_ip
from repro.web.har import HarArchive, HarEntry

#: The two Figure 3 ideal models, with the baseline code naming the
#: service boundary each one charges first contacts to.
MODELS: Dict[str, Tuple[ServiceGrouper, ReasonCode]] = {
    "origin": (by_asn, ReasonCode.MISS_DIFFERENT_AS),
    "ip": (by_ip, ReasonCode.MISS_DIFFERENT_IP),
}

#: The metrics a breakdown covers (validations mirror TLS: the model
#: and the crawl both count one validation per handshake).
METRICS = ("dns", "tls", "validations")

DecisionKey = Tuple[str, str, str]


def decision_index(
    events: Iterable[AuditEvent],
) -> Dict[DecisionKey, AuditEvent]:
    """Map ``(page, hostname, path)`` to the final decision event.

    Last event wins, so a 421 retry's second verdict supersedes the
    provisional one recorded before the retry.
    """
    index: Dict[DecisionKey, AuditEvent] = {}
    for event in events:
        if event.kind == "decision":
            index[(event.page, event.hostname, event.path)] = event
    return index


@dataclass
class GapBreakdown:
    """One metric's measured-vs-ideal reconciliation for one model."""

    metric: str
    model: str
    measured: int = 0
    ideal: int = 0
    baseline: Counter = field(default_factory=Counter)
    excess: Counter = field(default_factory=Counter)
    credits: Counter = field(default_factory=Counter)

    @property
    def gap(self) -> int:
        return self.measured - self.ideal

    def reconciles(self) -> bool:
        """The defining identity; False means an accounting bug."""
        return (
            self.measured == sum(self.baseline.values())
            + sum(self.excess.values())
            and self.ideal == sum(self.baseline.values())
            + sum(self.credits.values())
        )

    def absorb(self, other: "GapBreakdown") -> None:
        self.measured += other.measured
        self.ideal += other.ideal
        self.baseline.update(other.baseline)
        self.excess.update(other.excess)
        self.credits.update(other.credits)


def _reason_for(
    entry: HarEntry,
    archive: HarArchive,
    decisions: Dict[DecisionKey, AuditEvent],
) -> Optional[ReasonCode]:
    event = decisions.get(
        (archive.page.url, entry.hostname, entry.path)
    )
    return event.code if event is not None else None


def _failure_code(entry: HarEntry) -> ReasonCode:
    return (
        ReasonCode.MISS_MISDIRECTED_421
        if entry.status == 421
        else ReasonCode.MISS_REQUEST_FAILED
    )


def _tls_credit(entries: Sequence[HarEntry]) -> ReasonCode:
    """Why a service the model budgets a handshake for never paid one."""
    if all(entry.protocol == "cache" for entry in entries):
        return ReasonCode.CREDIT_CACHED
    if any(not entry.secure for entry in entries):
        return ReasonCode.CREDIT_CLEARTEXT_SERVICE
    return ReasonCode.CREDIT_COALESCED_ACROSS_SERVICES


def _dns_credit(entries: Sequence[HarEntry]) -> ReasonCode:
    """Why a service the model budgets a query for never paid one."""
    if all(entry.protocol == "cache" for entry in entries):
        return ReasonCode.CREDIT_CACHED
    if any(entry.coalesced for entry in entries):
        return ReasonCode.CREDIT_COALESCED_ACROSS_SERVICES
    return ReasonCode.CREDIT_NO_WIRE_QUERY


def reconcile_tls(
    archive: HarArchive,
    decisions: Dict[DecisionKey, AuditEvent],
    model: str,
) -> GapBreakdown:
    """Attribute every TLS handshake (and every unspent allowance)."""
    grouper, baseline_code = MODELS[model]
    out = GapBreakdown(metric="tls", model=model)
    out.measured = archive.tls_connection_count()
    services, unplaceable = service_partition(archive, grouper)
    out.ideal = len(services) + len(unplaceable)
    spent = set()
    for entry in archive.entries:
        if not entry.new_tls_connection:
            continue
        if entry.status != 200:
            out.excess[_failure_code(entry).value] += 1
            continue
        service = grouper(entry)
        if service is None:
            out.baseline[ReasonCode.MISS_UNPLACEABLE.value] += 1
        elif service not in spent:
            spent.add(service)
            out.baseline[baseline_code.value] += 1
        else:
            reason = _reason_for(entry, archive, decisions)
            out.excess[
                (reason or ReasonCode.MISS_UNATTRIBUTED).value
            ] += 1
    if archive.page.extra_tls_connections:
        out.excess[ReasonCode.MISS_SPECULATIVE_RACE.value] += \
            archive.page.extra_tls_connections
    for service, entries in services.items():
        if service not in spent:
            out.credits[_tls_credit(entries).value] += 1
    for entry in unplaceable:
        if not entry.new_tls_connection:
            out.credits[_tls_credit([entry]).value] += 1
    return out


def reconcile_dns(
    archive: HarArchive,
    decisions: Dict[DecisionKey, AuditEvent],
    model: str,
) -> GapBreakdown:
    """Attribute every wire DNS query (and every unspent allowance)."""
    grouper, baseline_code = MODELS[model]
    out = GapBreakdown(metric="dns", model=model)
    out.measured = archive.dns_query_count()
    services, unplaceable = service_partition(archive, grouper)
    out.ideal = len(services) + len(unplaceable)
    spent = set()
    for entry in archive.entries:
        if not entry.timings.used_dns:
            continue
        if entry.status != 200:
            out.excess[_failure_code(entry).value] += 1
            continue
        service = grouper(entry)
        if service is None:
            out.baseline[ReasonCode.MISS_UNPLACEABLE.value] += 1
        elif service not in spent:
            spent.add(service)
            out.baseline[baseline_code.value] += 1
        else:
            reason = _reason_for(entry, archive, decisions)
            if reason is not None and reason.is_hit:
                # The connection was reused, yet a wire query was
                # still paid first -- the render-blocking DNS the
                # ideal ORIGIN client eliminates (§6.8).
                out.excess[
                    ReasonCode.MISS_DNS_BEFORE_REUSE.value
                ] += 1
            else:
                out.excess[
                    (reason or ReasonCode.MISS_UNATTRIBUTED).value
                ] += 1
    for service, entries in services.items():
        if service not in spent:
            out.credits[_dns_credit(entries).value] += 1
    for entry in unplaceable:
        if not entry.timings.used_dns:
            out.credits[_dns_credit([entry]).value] += 1
    return out


def reconcile_page(
    archive: HarArchive,
    decisions: Dict[DecisionKey, AuditEvent],
    model: str = "origin",
) -> Dict[str, GapBreakdown]:
    """All three metric breakdowns for one page under one model.

    Validations reuse the TLS decomposition (both the crawl and the
    model count one validation per handshake).
    """
    tls = reconcile_tls(archive, decisions, model)
    validations = GapBreakdown(
        metric="validations", model=model,
        measured=tls.measured, ideal=tls.ideal,
        baseline=Counter(tls.baseline), excess=Counter(tls.excess),
        credits=Counter(tls.credits),
    )
    return {
        "dns": reconcile_dns(archive, decisions, model),
        "tls": tls,
        "validations": validations,
    }


def reconcile_result(
    archives: Sequence[HarArchive],
    decisions: Dict[DecisionKey, AuditEvent],
) -> Dict[str, Dict[str, GapBreakdown]]:
    """Aggregate breakdowns over the *successful* archives (the same
    population :func:`repro.core.predictions.figure3` draws from),
    against their :func:`decision_index`.

    Returns ``{model: {metric: GapBreakdown}}`` for every model in
    :data:`MODELS`; breakdowns of disjoint sets of pages add up
    (:meth:`GapBreakdown.absorb`).
    """
    out: Dict[str, Dict[str, GapBreakdown]] = {
        model: {
            metric: GapBreakdown(metric=metric, model=model)
            for metric in METRICS
        }
        for model in MODELS
    }
    for archive in archives:
        if not archive.page.success:
            continue
        for model in MODELS:
            page = reconcile_page(archive, decisions, model)
            for metric in METRICS:
                out[model][metric].absorb(page[metric])
    return out
