"""Trace-validated waterfalls: the Figure 2 correctness oracle.

The §4.1 reconstruction model (:mod:`repro.core.timeline`) rebuilds a
page's waterfall from HAR-level observations -- exactly what the paper
did with WebPageTest output.  Our simulator, however, knows the ground
truth: every DNS lookup, TCP connect, and TLS handshake is a traced
span on the simulated clock.  This module checks one against the
other, turning "the reconstruction looks right" into "the
reconstruction is consistent with the simulator":

* every successful HAR entry must correspond to a traced ``fetch``
  span with the **same interval** (``started_at + sum(phases) ==
  traced end``, the invariant the engine's blocked-time accounting
  promises);
* every entry that reports DNS time must match a traced wire
  ``dns.query`` span of that duration, started at the fetch start;
* every entry that reports a TLS handshake must match a traced
  ``h2.connection`` span whose measured TCP and TLS phases equal the
  entry's ``connect``/``ssl`` timings;
* the Figure 2 reconstruction must only remove costs that the
  simulator actually paid: each model-coalesced entry's dropped
  ``connect + ssl`` equals its traced handshake, each dropped DNS
  saving is bounded by the traced lookup, and non-coalesced entries
  keep their traced durations unchanged.

:func:`validate_crawl_trace` returns a list of discrepancy strings
(empty == consistent); :func:`assert_trace_valid` raises.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.grouping import ServiceGrouper, by_asn
from repro.core.timeline import ReconstructionOptions, reconstruct
from repro.dataset.crawler import CrawlResult
from repro.telemetry.tracer import Span
from repro.web.har import HarArchive, HarEntry

#: Matching tolerance in simulated ms; the simulation is float-exact,
#: so this only absorbs summation-order noise.
TOLERANCE_MS = 1e-6


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _duration(span: Span) -> float:
    """A finished span's length; 0.0 while it is still open."""
    if not span.finished:
        return 0.0
    return max(0.0, span.end_ms - span.start_ms)


class _Claimable:
    """A span pool supporting claim-once matching."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = list(spans)
        self.claimed = [False] * len(self.spans)

    def claim(self, predicate) -> Optional[Span]:
        for index, span in enumerate(self.spans):
            if not self.claimed[index] and predicate(span):
                self.claimed[index] = True
                return span
        return None


def _validate_entry_phases(
    entry: HarEntry,
    fetch: Span,
    dns_pool: _Claimable,
    conn_pool: _Claimable,
    tol: float,
    problems: List[str],
) -> Dict[str, Optional[Span]]:
    """Match one entry's phases against ground-truth spans."""
    claimed: Dict[str, Optional[Span]] = {"dns": None, "conn": None}
    where = f"{entry.hostname}{entry.path}"

    if not _close(fetch.end_ms, entry.finished_at, tol):
        problems.append(
            f"{where}: HAR interval ends at {entry.finished_at:.6f} but "
            f"traced fetch ended at {fetch.end_ms:.6f}"
        )

    if entry.timings.dns >= 0:
        span = dns_pool.claim(
            lambda s: s.attrs.get("qname") == entry.hostname
            and s.attrs.get("wire")
            and _close(s.start_ms, entry.started_at, tol)
            and _close(_duration(s), entry.timings.dns, tol)
        )
        if span is None:
            problems.append(
                f"{where}: HAR reports {entry.timings.dns:.3f}ms DNS but "
                "no traced wire dns.query span matches"
            )
        claimed["dns"] = span

    if entry.timings.ssl >= 0:
        span = conn_pool.claim(
            lambda s: s.attrs.get("sni") == entry.hostname
            and _close(s.attrs.get("tcp_ms", -1.0),
                       max(entry.timings.connect, 0.0), tol)
            and _close(s.attrs.get("tls_ms", -1.0), entry.timings.ssl,
                       tol)
        )
        if span is None:
            problems.append(
                f"{where}: HAR reports connect={entry.timings.connect:.3f}"
                f" ssl={entry.timings.ssl:.3f} but no traced "
                "h2.connection span matches"
            )
        claimed["conn"] = span
    return claimed


def _validate_reconstruction(
    archive: HarArchive,
    claims: Dict[int, Dict[str, Optional[Span]]],
    grouper: ServiceGrouper,
    options: Optional[ReconstructionOptions],
    tol: float,
    problems: List[str],
) -> None:
    """The Figure 2 check: the model only removes traced costs.

    The reconstruction may, for an entry it coalesces, (a) drop the
    TCP+TLS handshake, (b) drop DNS time up to the traced lookup, and
    (c) shed speculative blocked time.  It must never touch
    send/wait/receive, never *add* time to any phase, and must leave
    untouched entries' durations exactly as traced.
    """
    result = reconstruct(archive, grouper, options)
    originals = archive.entries_by_start()
    for original, rebuilt in zip(originals, result.reconstructed.entries):
        where = f"{original.hostname}{original.path}"
        if original.status != 200:
            continue
        before, after = original.timings, rebuilt.timings

        for phase in ("send", "wait", "receive"):
            if not _close(getattr(before, phase), getattr(after, phase),
                          tol):
                problems.append(
                    f"{where}: reconstruction changed the {phase} phase "
                    f"({getattr(before, phase):.3f} -> "
                    f"{getattr(after, phase):.3f})"
                )

        handshake_removed = before.connect >= 0 and after.connect < 0
        if handshake_removed:
            removed = before.connect + max(before.ssl, 0.0)
            conn = claims.get(id(original), {}).get("conn")
            if before.ssl >= 0 and conn is not None:
                traced = conn.attrs["tcp_ms"] + conn.attrs["tls_ms"]
                if not _close(removed, traced, tol):
                    problems.append(
                        f"{where}: model removed {removed:.3f}ms of "
                        f"handshake but the simulator paid {traced:.3f}ms"
                    )
        else:
            kept_before = max(before.connect, 0.0) + max(before.ssl, 0.0)
            kept_after = max(after.connect, 0.0) + max(after.ssl, 0.0)
            if not _close(kept_before, kept_after, tol):
                problems.append(
                    f"{where}: reconstruction altered a kept handshake "
                    f"({kept_before:.3f} -> {kept_after:.3f})"
                )

        dns_removed = max(before.dns, 0.0) - max(after.dns, 0.0)
        if dns_removed < -tol:
            problems.append(
                f"{where}: reconstruction added {-dns_removed:.3f}ms "
                "of DNS time"
            )
        elif dns_removed > tol:
            dns = claims.get(id(original), {}).get("dns")
            if dns is not None and dns_removed > _duration(dns) + tol:
                problems.append(
                    f"{where}: model removed {dns_removed:.3f}ms of DNS "
                    f"but the traced lookup only took "
                    f"{_duration(dns):.3f}ms"
                )

        blocked_shed = before.blocked - after.blocked
        if blocked_shed < -tol:
            problems.append(
                f"{where}: reconstruction added {-blocked_shed:.3f}ms "
                "of blocked time"
            )
        touched = (handshake_removed or dns_removed > tol
                   or blocked_shed > tol)
        if touched and not rebuilt.coalesced:
            problems.append(
                f"{where}: reconstruction changed timings of an entry "
                "it did not mark coalesced"
            )
        if not touched and not _close(before.total(), after.total(), tol):
            problems.append(
                f"{where}: reconstruction changed an untouched entry's "
                f"duration ({before.total():.3f} -> {after.total():.3f})"
            )


def validate_archive_trace(
    archive: HarArchive,
    fetch_spans: Sequence[Span],
    dns_pool: _Claimable,
    conn_pool: _Claimable,
    grouper: ServiceGrouper = by_asn,
    options: Optional[ReconstructionOptions] = None,
    tol: float = TOLERANCE_MS,
) -> List[str]:
    """Validate one page's waterfall (and its reconstruction) against
    traced ground truth.  Returns discrepancy strings."""
    problems: List[str] = []
    fetch_pool = _Claimable(fetch_spans)
    claims: Dict[int, Dict[str, Optional[Span]]] = {}
    for entry in archive.entries:
        if entry.status != 200:
            continue
        fetch = fetch_pool.claim(
            lambda s: s.attrs.get("hostname") == entry.hostname
            and s.attrs.get("path") == entry.path
            and _close(s.start_ms, entry.started_at, tol)
        )
        if fetch is None:
            problems.append(
                f"{entry.hostname}{entry.path}: no traced fetch span "
                f"starting at {entry.started_at:.6f}"
            )
            continue
        claims[id(entry)] = _validate_entry_phases(
            entry, fetch, dns_pool, conn_pool, tol, problems
        )
    _validate_reconstruction(archive, claims, grouper, options, tol,
                             problems)
    return problems


def validate_crawl_trace(
    result: CrawlResult,
    spans: Sequence[Span],
    grouper: ServiceGrouper = by_asn,
    options: Optional[ReconstructionOptions] = None,
    tol: float = TOLERANCE_MS,
) -> List[str]:
    """Validate every page of a traced crawl against its spans.

    Spans are grouped by shard (each shard's clock starts at zero, so
    cross-shard times must not be compared), pages are located through
    their ``fetch`` spans' ``page`` attribute, and every successful
    HAR entry plus its Figure 2 reconstruction is checked.
    """
    problems: List[str] = []
    archives = {archive.page.url: archive for archive in result.archives}
    shards = sorted({span.shard for span in spans})
    validated = set()
    for shard in shards:
        shard_spans = [s for s in spans if s.shard == shard]
        fetch_by_page: Dict[str, List[Span]] = {}
        for span in shard_spans:
            if span.name == "fetch":
                page = span.attrs.get("page", "")
                fetch_by_page.setdefault(page, []).append(span)
        dns_pool = _Claimable(
            [s for s in shard_spans if s.name == "dns.query"]
        )
        conn_pool = _Claimable(
            [s for s in shard_spans if s.name == "h2.connection"]
        )
        for page_url, fetch_spans in fetch_by_page.items():
            archive = archives.get(page_url)
            if archive is None:
                problems.append(
                    f"trace has fetch spans for {page_url} but the crawl "
                    "result has no such page"
                )
                continue
            validated.add(page_url)
            problems.extend(validate_archive_trace(
                archive, fetch_spans, dns_pool, conn_pool,
                grouper=grouper, options=options, tol=tol,
            ))
    for archive in result.archives:
        if archive.page.success and archive.page.url not in validated:
            problems.append(
                f"page {archive.page.url} succeeded but has no fetch "
                "spans in the trace"
            )
    return problems


def assert_trace_valid(
    result: CrawlResult,
    spans: Sequence[Span],
    grouper: ServiceGrouper = by_asn,
    options: Optional[ReconstructionOptions] = None,
) -> None:
    """Raise ``AssertionError`` listing every discrepancy (if any)."""
    problems = validate_crawl_trace(result, spans, grouper=grouper,
                                    options=options)
    if problems:
        summary = "\n  ".join(problems[:25])
        more = len(problems) - 25
        if more > 0:
            summary += f"\n  ... and {more} more"
        raise AssertionError(
            f"trace/waterfall mismatch ({len(problems)} problems):\n"
            f"  {summary}"
        )
