"""Dataset characterization: recompute the paper's Tables 1-7 + Fig 1.

The paper's tables are marginals over its per-page HAR timelines
(§3.1), i.e. folds.  :class:`CrawlFold` is that fold: a page sink a
crawl hands each archive to as its shard merges (:meth:`CrawlFold.add`),
which keeps per-page scalars and counters and drops the archive.
Tables 1-7, Figure 1, the unique-AS count and the run ledger's
headline are views over it (:meth:`CrawlFold.of` folds a list of
archives), each with its own reach: Tables 2-7 and Figure 1 count
successful pages, Table 1 every page, and the unique-AS count every
entry.  So are the §4 model's per-page views -- Figure 3 and the
headline reductions (:meth:`CrawlFold.figure3`) and ``repro model``'s
per-protocol rows -- which is why every crawl command can fold.
Counters fill in page order, so ties in ``most_common`` break as one
pass over the archives would.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Sequence,
    Tuple,
)

import numpy as np

from repro.analysis.render import format_pct, render_table
from repro.web.har import HarArchive


def _median(values: Sequence[float]) -> float:
    return float(np.median(values)) if len(values) else 0.0


class _Page(NamedTuple):
    """What the views need of one page: its rank and outcome, and for
    a successful page its Table 1 medians' inputs, its Figure 1 AS
    count, its new connections and its ideal-IP and ideal-ORIGIN
    connection counts (§4, Figure 3)."""

    rank: int
    success: bool
    requests: int = 0
    plt: float = 0.0
    dns: int = 0
    tls: int = 0
    connections: int = 0
    ases: int = 0
    ideal_ip: int = 0
    ideal_origin: int = 0


@dataclass
class Table1Row:
    bucket_label: str
    attempted: int
    success: int
    median_requests: float
    median_plt_ms: float
    median_dns: float
    median_tls: float


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


class CrawlFold:
    """A crawl's characterization, folded one archive at a time: the
    page sink of every crawl command (a command that needs more of a
    page, such as ``privacy`` or ``explain``, folds a subclass)."""

    def __init__(self) -> None:
        self.pages: List[_Page] = []
        #: Requests on successful pages, and those sent securely.
        self.requests = 0
        self.secure = 0
        #: Table 2: requests per AS, and each AS's last-seen org.
        self.as_requests: Counter = Counter()
        self.as_orgs: Dict[int, str] = {}
        #: Table 3: requests per protocol label.
        self.protocols: Counter = Counter()
        #: Table 4: new TLS validations, per issuer.
        self.validations = 0
        self.issuers: Counter = Counter()
        #: Table 5: requests per content type.
        self.content_types: Counter = Counter()
        #: Table 6: typed requests per AS, per type, and the AS's org.
        self.typed_as_requests: Counter = Counter()
        self.as_types: Dict[int, Counter] = defaultdict(Counter)
        self.typed_as_orgs: Dict[int, str] = {}
        #: Table 7: requests per hostname other than the page's root.
        self.third_party: Counter = Counter()
        #: ASes only failed pages' entries reached.
        self.failed_asns: set = set()
        #: ``repro model``'s per-protocol rows on successful pages, in
        #: first-seen order: protocol -> [requests, new connections,
        #: handshake ms].
        self.protocol_rows: Dict[str, list] = {}

    @classmethod
    def of(cls, archives: Iterable[HarArchive]) -> "CrawlFold":
        fold = cls()
        for archive in archives:
            fold.add(archive)
        return fold

    def on_shard(self, result) -> None:
        """Called by the crawl once a shard's pages are added, with the
        shard's :class:`~repro.dataset.shard.ShardResult`; the fold
        needs nothing more of it."""

    def add(self, archive: HarArchive) -> None:
        """Fold one page; nothing keeps a reference to ``archive``."""
        page = archive.page
        entries = archive.entries
        if not page.success:
            self.pages.append(_Page(page.rank, False))
            self.failed_asns.update(
                entry.asn for entry in entries if entry.asn)
            return
        dns = tls = connections = secure = 0
        asns = set()
        as_requests, as_orgs = self.as_requests, self.as_orgs
        content_types, protocols = self.content_types, self.protocols
        third_party, root = self.third_party, page.hostname
        protocol_rows = self.protocol_rows
        for entry in entries:
            timings = entry.timings
            connect, ssl = timings.connect, timings.ssl
            row = protocol_rows.get(entry.protocol)
            if row is None:
                row = protocol_rows[entry.protocol] = [0, 0, 0.0]
            row[0] += 1
            if connect >= 0 or ssl >= 0:
                row[1] += 1
                row[2] += max(connect, 0.0) + max(ssl, 0.0)
            if timings.used_dns:
                dns += 1
            if timings.used_new_connection:
                connections += 1
            if entry.new_tls_connection:
                tls += 1
                if entry.certificate_issuer:
                    self.validations += 1
                    self.issuers[entry.certificate_issuer] += 1
            asn, content_type = entry.asn, entry.content_type
            if asn:
                asns.add(asn)
                as_requests[asn] += 1
                as_orgs[asn] = entry.as_org
                if content_type:
                    self.as_types[asn][content_type] += 1
                    self.typed_as_requests[asn] += 1
                    self.typed_as_orgs[asn] = entry.as_org
            if content_type:
                content_types[content_type] += 1
            protocols["N/A" if entry.status == 0
                      else entry.protocol or "N/A"] += 1
            if entry.secure:
                secure += 1
            if entry.hostname != root:
                third_party[entry.hostname] += 1
        self.requests += len(entries)
        self.secure += secure
        extra = page.extra_tls_connections
        from repro.core.coalescing import ideal_ip_counts, ideal_origin_counts

        self.pages.append(_Page(
            page.rank, True, len(entries), page.on_load, dns,
            tls + extra, connections + extra, len(asns),
            ideal_ip_counts(archive).tls_connections,
            ideal_origin_counts(archive).tls_connections,
        ))

    # -- the crawl's shape ---------------------------------------------------

    @property
    def attempted(self) -> int:
        return len(self.pages)

    @property
    def successes(self) -> List[_Page]:
        return [page for page in self.pages if page.success]

    @property
    def success_count(self) -> int:
        return len(self.successes)

    # -- Table 1 -------------------------------------------------------------

    def table1(self, bucket_size: int = 100_000,
               rank_space: int = 500_000) -> List[Table1Row]:
        """Crawl summary per popularity bucket, plus a Total row."""
        buckets: Dict[int, List[_Page]] = defaultdict(list)
        for page in self.pages:
            bucket = min((page.rank - 1) // bucket_size,
                         rank_space // bucket_size - 1)
            buckets[bucket].append(page)
        rows: List[Table1Row] = []
        for bucket in sorted(buckets):
            label = (f"{bucket * bucket_size // 1000}K-"
                     f"{(bucket + 1) * bucket_size // 1000}K")
            rows.append(_summary_row(label, buckets[bucket]))
        rows.append(_summary_row("Total", self.pages))
        return rows

    # -- Table 2 -------------------------------------------------------------

    def table2(self, top: int = 10) -> List[Tuple[int, str, int, float]]:
        """Top destination ASes: (asn, org, requests, share)."""
        total = self.requests
        return [
            (asn, self.as_orgs[asn], count, count / total if total else 0.0)
            for asn, count in self.as_requests.most_common(top)
        ]

    def unique_as_count(self) -> int:
        """Distinct ASes any entry reached, failed pages' included."""
        return len(self.failed_asns.union(self.as_requests))

    # -- Table 3 -------------------------------------------------------------

    def table3(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """(protocol counts, {'secure': n, 'insecure': n})."""
        return dict(self.protocols), {
            "secure": self.secure, "insecure": self.requests - self.secure,
        }

    # -- Table 4 -------------------------------------------------------------

    def table4(self, top: int = 10
               ) -> Tuple[List[Tuple[str, int, float]], int, int]:
        """Top issuers among new TLS validations.

        Returns (rows, validations, total_requests); rows are
        (issuer, validations, share-of-validations).
        """
        validations = self.validations
        rows = [
            (issuer, count, count / validations if validations else 0.0)
            for issuer, count in self.issuers.most_common(top)
        ]
        return rows, validations, self.requests

    # -- Table 5 -------------------------------------------------------------

    def table5(self, top: int = 12) -> List[Tuple[str, int, float]]:
        total = sum(self.content_types.values())
        return [
            (content_type, count, count / total if total else 0.0)
            for content_type, count in self.content_types.most_common(top)
        ]

    # -- Table 6 -------------------------------------------------------------

    def table6(self, top_ases: int = 3, top_types: int = 4
               ) -> Dict[Tuple[int, str], List[Tuple[str, int, float]]]:
        """Per top-AS content-type breakdown, keyed by (asn, org)."""
        result = {}
        for asn, total in self.typed_as_requests.most_common(top_ases):
            result[(asn, self.typed_as_orgs[asn])] = [
                (content_type, count, count / total)
                for content_type, count
                in self.as_types[asn].most_common(top_types)
            ]
        return result

    # -- Table 7 -------------------------------------------------------------

    def table7(self, top: int = 10) -> List[Tuple[str, int, float]]:
        """Top subresource hostnames (excluding each page's own root)."""
        total = self.requests
        return [
            (hostname, count, count / total if total else 0.0)
            for hostname, count in self.third_party.most_common(top)
        ]

    # -- Figure 1 ------------------------------------------------------------

    def figure1(self) -> Figure1Data:
        counts = [page.ases for page in self.successes]
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

    # -- the §4 model --------------------------------------------------------

    def figure3(self):
        """Figure 3's per-page counts over the successful pages (a
        :class:`~repro.core.predictions.Figure3Data`)."""
        from repro.core.predictions import Figure3Data

        successes = self.successes
        return Figure3Data(
            measured_dns=[page.dns for page in successes],
            measured_tls=[page.tls for page in successes],
            ideal_ip=[page.ideal_ip for page in successes],
            ideal_origin=[page.ideal_origin for page in successes],
        )

    # -- the run ledger's headline -------------------------------------------

    def headline(self) -> Dict[str, float]:
        """The paper's aggregate metrics for the crawl: a run record's
        headline (:func:`repro.obs.ledger.build_crawl_record`)."""
        successes = self.successes
        reductions = self.figure3().headline_reductions()
        plt_total = sum(page.plt for page in successes)
        return {
            "pages_attempted": self.attempted,
            "pages_succeeded": len(successes),
            "pages_failed": self.attempted - len(successes),
            "requests": self.requests,
            "dns_queries": sum(page.dns for page in successes),
            "tls_handshakes": sum(page.tls for page in successes),
            "new_connections": sum(
                page.connections for page in successes),
            "mean_plt_ms": round(
                plt_total / len(successes), 6
            ) if successes else 0.0,
            "dns_reduction": round(reductions["dns_reduction"], 6),
            "validation_reduction": round(
                reductions["validation_reduction"], 6
            ),
        }


def _summary_row(label: str, group: Sequence[_Page]) -> Table1Row:
    successes = [page for page in group if page.success]
    return Table1Row(
        bucket_label=label,
        attempted=len(group),
        success=len(successes),
        median_requests=_median([page.requests for page in successes]),
        median_plt_ms=_median([page.plt for page in successes]),
        median_dns=_median([page.dns for page in successes]),
        median_tls=_median([page.tls for page in successes]),
    )


# -- CLI table registry -------------------------------------------------------
#
# One rendered-string builder per paper table, keyed by the ``--tables``
# token, each over a crawl's fold.  The CLI prints whatever these
# return; keeping the rendering next to the data keeps the seven
# tables from drifting apart again.

def _render_table1(fold: CrawlFold) -> str:
    rows = fold.table1()
    return render_table(
        "Table 1 -- crawl summary",
        ["Rank", "Attempted", "Success", "#Reqs", "PLT (ms)", "#DNS",
         "#TLS"],
        [(r.bucket_label, r.attempted, r.success,
          f"{r.median_requests:.0f}", f"{r.median_plt_ms:.0f}",
          f"{r.median_dns:.0f}", f"{r.median_tls:.0f}") for r in rows],
    )


def _render_table2(fold: CrawlFold) -> str:
    return render_table(
        "Table 2 -- top destination ASes",
        ["ASN", "Org", "#Req", "%"],
        [(asn, org, count, format_pct(share))
         for asn, org, count, share in fold.table2()],
    )


def _render_table3(fold: CrawlFold) -> str:
    protocols, _ = fold.table3()
    total = sum(protocols.values())
    return render_table(
        "Table 3 -- protocols",
        ["Protocol", "#Req", "%"],
        [(name, count, format_pct(count / total))
         for name, count in sorted(protocols.items(),
                                   key=lambda kv: -kv[1])],
    )


def _render_table4(fold: CrawlFold) -> str:
    rows, validations, total = fold.table4()
    return render_table(
        f"Table 4 -- certificate issuers ({validations} validations "
        f"over {total} requests)",
        ["Issuer", "#Validations", "%"],
        [(issuer, count, format_pct(share))
         for issuer, count, share in rows],
    )


def _render_table5(fold: CrawlFold) -> str:
    return render_table(
        "Table 5 -- content types",
        ["Content type", "#Req", "%"],
        [(content_type, count, format_pct(share))
         for content_type, count, share in fold.table5()],
    )


def _render_table6(fold: CrawlFold) -> str:
    rows = []
    for (asn, org), breakdown in fold.table6().items():
        for content_type, count, share in breakdown:
            rows.append((asn, org, content_type, count,
                         format_pct(share)))
    return render_table(
        "Table 6 -- content types per top AS",
        ["ASN", "Org", "Content type", "#Req", "%"],
        rows,
    )


def _render_table7(fold: CrawlFold) -> str:
    return render_table(
        "Table 7 -- top third-party hostnames",
        ["Hostname", "#Req", "%"],
        [(hostname, count, format_pct(share))
         for hostname, count, share in fold.table7()],
    )


#: ``--tables`` tokens, in render order.
CRAWL_TABLES: Dict[str, Callable[[CrawlFold], str]] = {
    "1": _render_table1,
    "2": _render_table2,
    "3": _render_table3,
    "4": _render_table4,
    "5": _render_table5,
    "6": _render_table6,
    "7": _render_table7,
}

DEFAULT_TABLES = "1,2,3"


def render_crawl_table(token: str, fold: CrawlFold) -> str:
    """Render one paper table (by ``--tables`` token) from a crawl's
    fold."""
    return CRAWL_TABLES[token](fold)
