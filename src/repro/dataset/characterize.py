"""Dataset characterization: recompute the paper's Tables 1-7 + Fig 1.

Each function consumes HAR archives from a crawl and returns plain data
(lists of row tuples / dicts) that the benches print and the tests
assert shape properties on.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.render import format_pct, render_table
from repro.web.har import HarArchive


def _median(values: Sequence[float]) -> float:
    return float(np.median(values)) if len(values) else 0.0


# -- Table 1 -----------------------------------------------------------------

@dataclass
class Table1Row:
    bucket_label: str
    attempted: int
    success: int
    median_requests: float
    median_plt_ms: float
    median_dns: float
    median_tls: float


def table1(
    archives: Sequence[HarArchive], bucket_size: int = 100_000,
    rank_space: int = 500_000,
) -> List[Table1Row]:
    """Crawl summary per popularity bucket, plus a Total row."""
    buckets: Dict[int, List[HarArchive]] = defaultdict(list)
    for archive in archives:
        bucket = min((archive.page.rank - 1) // bucket_size,
                     rank_space // bucket_size - 1)
        buckets[bucket].append(archive)

    rows: List[Table1Row] = []
    for bucket in sorted(buckets):
        group = buckets[bucket]
        successes = [a for a in group if a.page.success]
        label = (f"{bucket * bucket_size // 1000}K-"
                 f"{(bucket + 1) * bucket_size // 1000}K")
        rows.append(_summary_row(label, group, successes))
    all_success = [a for a in archives if a.page.success]
    rows.append(_summary_row("Total", list(archives), all_success))
    return rows


def _summary_row(label, group, successes) -> Table1Row:
    return Table1Row(
        bucket_label=label,
        attempted=len(group),
        success=len(successes),
        median_requests=_median([a.request_count for a in successes]),
        median_plt_ms=_median([a.page_load_time for a in successes]),
        median_dns=_median([a.dns_query_count() for a in successes]),
        median_tls=_median([a.tls_connection_count() for a in successes]),
    )


# -- Table 2 -----------------------------------------------------------------

def table2(
    archives: Sequence[HarArchive], top: int = 10
) -> List[Tuple[int, str, int, float]]:
    """Top destination ASes: (asn, org, requests, share)."""
    counter: Counter = Counter()
    orgs: Dict[int, str] = {}
    total = 0
    for archive in archives:
        if not archive.page.success:
            continue
        for entry in archive.entries:
            total += 1
            if entry.asn:
                counter[entry.asn] += 1
                orgs[entry.asn] = entry.as_org
    rows = []
    for asn, count in counter.most_common(top):
        rows.append((asn, orgs[asn], count, count / total if total else 0.0))
    return rows


def unique_as_count(archives: Sequence[HarArchive]) -> int:
    seen = set()
    for archive in archives:
        for entry in archive.entries:
            if entry.asn:
                seen.add(entry.asn)
    return len(seen)


# -- Table 3 -----------------------------------------------------------------

def table3(
    archives: Sequence[HarArchive],
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """(protocol counts, {'secure': n, 'insecure': n})."""
    protocols: Counter = Counter()
    security = {"secure": 0, "insecure": 0}
    for archive in archives:
        if not archive.page.success:
            continue
        for entry in archive.entries:
            label = entry.protocol or "N/A"
            if entry.status == 0:
                label = "N/A"
            protocols[label] += 1
            security["secure" if entry.secure else "insecure"] += 1
    return dict(protocols), security


# -- Table 4 -----------------------------------------------------------------

def table4(
    archives: Sequence[HarArchive], top: int = 10
) -> Tuple[List[Tuple[str, int, float]], int, int]:
    """Top issuers among new TLS validations.

    Returns (rows, validations, total_requests); rows are
    (issuer, validations, share-of-validations).
    """
    counter: Counter = Counter()
    validations = 0
    total = 0
    for archive in archives:
        if not archive.page.success:
            continue
        for entry in archive.entries:
            total += 1
            if entry.new_tls_connection and entry.certificate_issuer:
                validations += 1
                counter[entry.certificate_issuer] += 1
    rows = [
        (issuer, count, count / validations if validations else 0.0)
        for issuer, count in counter.most_common(top)
    ]
    return rows, validations, total


# -- Table 5 -----------------------------------------------------------------

def table5(
    archives: Sequence[HarArchive], top: int = 12
) -> List[Tuple[str, int, float]]:
    counter: Counter = Counter()
    total = 0
    for archive in archives:
        if not archive.page.success:
            continue
        for entry in archive.entries:
            if entry.content_type:
                counter[entry.content_type] += 1
                total += 1
    return [
        (content_type, count, count / total if total else 0.0)
        for content_type, count in counter.most_common(top)
    ]


# -- Table 6 -----------------------------------------------------------------

def table6(
    archives: Sequence[HarArchive],
    top_ases: int = 3,
    top_types: int = 4,
) -> Dict[Tuple[int, str], List[Tuple[str, int, float]]]:
    """Per top-AS content-type breakdown, keyed by (asn, org)."""
    by_as: Dict[int, Counter] = defaultdict(Counter)
    orgs: Dict[int, str] = {}
    request_totals: Counter = Counter()
    for archive in archives:
        if not archive.page.success:
            continue
        for entry in archive.entries:
            if entry.asn and entry.content_type:
                by_as[entry.asn][entry.content_type] += 1
                request_totals[entry.asn] += 1
                orgs[entry.asn] = entry.as_org
    result = {}
    for asn, _ in request_totals.most_common(top_ases):
        total = request_totals[asn]
        result[(asn, orgs[asn])] = [
            (content_type, count, count / total)
            for content_type, count in by_as[asn].most_common(top_types)
        ]
    return result


# -- Table 7 -----------------------------------------------------------------

def table7(
    archives: Sequence[HarArchive], top: int = 10
) -> List[Tuple[str, int, float]]:
    """Top subresource hostnames (excluding each page's own root)."""
    counter: Counter = Counter()
    total = 0
    for archive in archives:
        if not archive.page.success:
            continue
        for entry in archive.entries:
            total += 1
            if entry.hostname != archive.page.hostname:
                counter[entry.hostname] += 1
    return [
        (hostname, count, count / total if total else 0.0)
        for hostname, count in counter.most_common(top)
    ]


# -- Figure 1 -----------------------------------------------------------------

@dataclass
class Figure1Data:
    """Histogram + CDF of unique ASes needed per page."""

    as_counts: List[int]
    histogram: Dict[int, float]   # count -> fraction of pages
    cdf: List[Tuple[int, float]]  # (count, cumulative fraction)

    def cdf_at(self, count: int) -> float:
        best = 0.0
        for value, cumulative in self.cdf:
            if value <= count:
                best = cumulative
        return best


def figure1(archives: Sequence[HarArchive]) -> Figure1Data:
    counts = [
        len(archive.unique_asns())
        for archive in archives
        if archive.page.success
    ]
    total = len(counts)
    histogram_counter = Counter(counts)
    histogram = {
        value: count / total for value, count in
        sorted(histogram_counter.items())
    } if total else {}
    cdf: List[Tuple[int, float]] = []
    cumulative = 0.0
    for value in sorted(histogram_counter):
        cumulative += histogram_counter[value] / total
        cdf.append((value, cumulative))
    return Figure1Data(as_counts=counts, histogram=histogram, cdf=cdf)


# -- CLI table registry -------------------------------------------------------
#
# One rendered-string builder per paper table, keyed by the ``--tables``
# token.  The CLI prints whatever these return; keeping the rendering
# next to the data keeps the seven tables from drifting apart again.

def _render_table1(result) -> str:
    rows = table1(result.archives)
    return render_table(
        "Table 1 -- crawl summary",
        ["Rank", "Attempted", "Success", "#Reqs", "PLT (ms)", "#DNS",
         "#TLS"],
        [(r.bucket_label, r.attempted, r.success,
          f"{r.median_requests:.0f}", f"{r.median_plt_ms:.0f}",
          f"{r.median_dns:.0f}", f"{r.median_tls:.0f}") for r in rows],
    )


def _render_table2(result) -> str:
    return render_table(
        "Table 2 -- top destination ASes",
        ["ASN", "Org", "#Req", "%"],
        [(asn, org, count, format_pct(share))
         for asn, org, count, share in table2(result.successes)],
    )


def _render_table3(result) -> str:
    protocols, _ = table3(result.successes)
    total = sum(protocols.values())
    return render_table(
        "Table 3 -- protocols",
        ["Protocol", "#Req", "%"],
        [(name, count, format_pct(count / total))
         for name, count in sorted(protocols.items(),
                                   key=lambda kv: -kv[1])],
    )


def _render_table4(result) -> str:
    rows, validations, total = table4(result.successes)
    return render_table(
        f"Table 4 -- certificate issuers ({validations} validations "
        f"over {total} requests)",
        ["Issuer", "#Validations", "%"],
        [(issuer, count, format_pct(share))
         for issuer, count, share in rows],
    )


def _render_table5(result) -> str:
    return render_table(
        "Table 5 -- content types",
        ["Content type", "#Req", "%"],
        [(content_type, count, format_pct(share))
         for content_type, count, share in table5(result.successes)],
    )


def _render_table6(result) -> str:
    rows = []
    for (asn, org), breakdown in table6(result.successes).items():
        for content_type, count, share in breakdown:
            rows.append((asn, org, content_type, count,
                         format_pct(share)))
    return render_table(
        "Table 6 -- content types per top AS",
        ["ASN", "Org", "Content type", "#Req", "%"],
        rows,
    )


def _render_table7(result) -> str:
    return render_table(
        "Table 7 -- top third-party hostnames",
        ["Hostname", "#Req", "%"],
        [(hostname, count, format_pct(share))
         for hostname, count, share in table7(result.successes)],
    )


#: ``--tables`` tokens, in render order.
CRAWL_TABLES: Dict[str, Callable[[object], str]] = {
    "1": _render_table1,
    "2": _render_table2,
    "3": _render_table3,
    "4": _render_table4,
    "5": _render_table5,
    "6": _render_table6,
    "7": _render_table7,
}

DEFAULT_TABLES = "1,2,3"


def render_crawl_table(token: str, result) -> str:
    """Render one paper table (by ``--tables`` token) from a crawl
    result (anything with ``.archives`` and ``.successes``)."""
    return CRAWL_TABLES[token](result)
