"""Least-effort certificate modification planning (paper §4.3).

For every website: find the hostnames its page needs that are served
by the *same provider* (same origin AS) as the website itself but are
absent from the website's certificate SAN -- those are the additions
that would let a client coalesce them.  Only the website's own
certificate is modified, and only with coalescable names ("our model
takes a compromise position and assumes no change in the number of
certificates").

The plan is read from the generated site records alone: a
:class:`~repro.dataset.generator.SiteRecord` says which hostnames the
site serves, which provider hosts it and which SAN its certificate
carries, and the popular third parties' providers are a fixed table
(:data:`repro.dataset.profiles.POPULAR_PROVIDER_BY_HOSTNAME`), so no
world is built to resolve a name.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.dataset.generator import SiteRecord
from repro.dataset.profiles import POPULAR_PROVIDER_BY_HOSTNAME
from repro.tlspki.certificate import hostname_matches


@dataclass
class SitePlan:
    """The certificate change plan for one website, as plain data."""

    #: The site's hosting provider (empty if self-hosted).
    provider: str
    #: The site's own hostnames (:meth:`SiteRecord.own_hostnames`).
    own_hostnames: Tuple[str, ...]
    #: SAN entries of the certificate the site serves.
    existing_san_count: int
    #: Page hostnames on the site's own AS (coalescable with the root).
    coalescable: Tuple[str, ...]
    #: Coalescable hostnames absent from the certificate SAN.
    additions: Tuple[str, ...]

    @property
    def ideal_san_count(self) -> int:
        return self.existing_san_count + len(self.additions)

    @property
    def change_count(self) -> int:
        return len(self.additions)

    @property
    def needs_changes(self) -> bool:
        return bool(self.additions)


@dataclass
class CertificatePlan:
    """Aggregate plan over the whole dataset."""

    plans: List[SitePlan]

    @property
    def site_count(self) -> int:
        return len(self.plans)

    @property
    def unchanged_fraction(self) -> float:
        """Paper: 62.41% of certificates require no modifications."""
        if not self.plans:
            return 0.0
        unchanged = sum(1 for plan in self.plans if not plan.needs_changes)
        return unchanged / len(self.plans)

    def fraction_with_changes_at_most(self, limit: int) -> float:
        """Paper: <=10 changes covers 92.66% of websites."""
        if not self.plans:
            return 0.0
        covered = sum(
            1 for plan in self.plans if plan.change_count <= limit
        )
        return covered / len(self.plans)

    def existing_san_counts(self) -> List[int]:
        return [plan.existing_san_count for plan in self.plans]

    def ideal_san_counts(self) -> List[int]:
        return [plan.ideal_san_count for plan in self.plans]

    def median_san_shift(self) -> Tuple[float, float]:
        """(existing median, ideal median) over *changed* certs --
        Figure 4 reports a 2 -> 3 median shift among SANs that changed."""
        changed = [plan for plan in self.plans if plan.needs_changes]
        if not changed:
            return 0.0, 0.0
        return (
            float(np.median([p.existing_san_count for p in changed])),
            float(np.median([p.ideal_san_count for p in changed])),
        )

    def sites_with_san_over(self, threshold: int) -> Tuple[int, int]:
        """(before, after) counts of sites above a SAN-size threshold
        -- the paper reports 230 -> 529 sites above 250 names."""
        before = sum(
            1 for plan in self.plans
            if plan.existing_san_count > threshold
        )
        after = sum(
            1 for plan in self.plans if plan.ideal_san_count > threshold
        )
        return before, after

    def largest_ideal_san(self) -> int:
        return max(
            (plan.ideal_san_count for plan in self.plans), default=0
        )

    def figure5_series(self) -> Dict[str, List[int]]:
        """Sites ranked by existing SAN size (descending), with the
        matching change counts and ideal sizes -- Figure 5's series."""
        ordered = sorted(
            self.plans, key=lambda plan: plan.existing_san_count,
            reverse=True,
        )
        return {
            "existing": [plan.existing_san_count for plan in ordered],
            "changes": [plan.change_count for plan in ordered],
            "ideal": sorted(
                (plan.ideal_san_count for plan in self.plans),
                reverse=True,
            ),
        }


def plan_certificates(records: Iterable[SiteRecord]) -> CertificatePlan:
    """Build the §4.3 plan for every site of ``records``.

    A page hostname other than the root is coalescable when the site
    serves it (:meth:`SiteRecord.own_hostnames`) or its provider
    co-hosts it (a popular third party on ``record.provider``; a
    self-hosted site has none); it is an addition when no entry of the
    certificate's SAN matches it (an empty SAN matches none).
    """
    plans: List[SitePlan] = []
    for record in records:
        own = record.own_hostnames()
        coalescable: List[str] = []
        additions: List[str] = []
        for hostname in record.page.hostnames():
            if hostname == record.root_hostname:
                continue
            cohosted = (POPULAR_PROVIDER_BY_HOSTNAME.get(hostname)
                        == record.provider)
            if hostname not in own and not cohosted:
                continue
            coalescable.append(hostname)
            if not any(hostname_matches(entry, hostname)
                       for entry in record.cert_san):
                additions.append(hostname)
        plans.append(
            SitePlan(
                provider=record.provider,
                own_hostnames=own,
                existing_san_count=len(record.cert_san),
                coalescable=tuple(coalescable),
                additions=tuple(additions),
            )
        )
    return CertificatePlan(plans=plans)


def san_distribution_table(
    plan: CertificatePlan, top: int = 10
) -> List[Tuple[int, int, int, int, float, int]]:
    """Table 8: SAN-size values ranked by how many certificates have
    them, measured vs ideal.

    Rows are ``(rank, measured_value, measured_count, ideal_value,
    ideal_count, pct_change, rank_change)`` where ``pct_change``
    compares the ideal value's certificate count to the same value's
    measured count, and ``rank_change`` is how many rank positions the
    ideal value moved from the measured ranking (0 = unchanged).
    """
    measured = Counter(plan.existing_san_counts())
    ideal = Counter(plan.ideal_san_counts())
    measured_ranked = [value for value, _ in measured.most_common()]
    rows = []
    for rank, ((m_value, m_count), (i_value, i_count)) in enumerate(
        zip(measured.most_common(top), ideal.most_common(top)), start=1
    ):
        baseline = measured.get(i_value, 0)
        pct = ((i_count - baseline) / baseline * 100.0) if baseline else \
            float("inf")
        old_rank = (
            measured_ranked.index(i_value) + 1
            if i_value in measured_ranked else 0
        )
        rank_change = (old_rank - rank) if old_rank else 0
        rows.append((rank, m_value, m_count, i_value, i_count, pct,
                     rank_change))
    return rows


def provider_addition_table(
    plan: CertificatePlan,
    top_providers: int = 3,
    top_hostnames: int = 5,
) -> List[Tuple[str, int, float, List[Tuple[str, int, float]]]]:
    """Table 9: per top hosting provider, the most-used same-provider
    hostnames its sites would add to their certificates.

    Rows are ``(provider, site_count, site_share, [(hostname,
    using_sites, share_of_provider_sites), ...])``.
    """
    by_provider: Dict[str, List[SitePlan]] = {}
    for site_plan in plan.plans:
        provider = site_plan.provider
        if provider:
            by_provider.setdefault(provider, []).append(site_plan)

    ranked = sorted(
        by_provider.items(), key=lambda item: len(item[1]), reverse=True
    )[:top_providers]

    total_sites = plan.site_count
    rows = []
    for provider, site_plans in ranked:
        usage: Counter = Counter()
        for site_plan in site_plans:
            # Sorted: ``most_common`` breaks count ties by insertion
            # order, which a set's would leave to the hash seed.
            for hostname in sorted(set(site_plan.coalescable)):
                if hostname not in site_plan.own_hostnames:
                    usage[hostname] += 1
        host_rows = [
            (hostname, count, count / len(site_plans))
            for hostname, count in usage.most_common(top_hostnames)
        ]
        rows.append(
            (provider, len(site_plans), len(site_plans) / total_sites,
             host_rows)
        )
    return rows
