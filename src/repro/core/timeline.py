"""Waterfall reconstruction (paper §4.1, Figure 2).

Rebuilds a page-load timeline as if every coalescable request had
ridden an existing connection: its DNS, TCP-connect, and TLS phases
are removed, and every request it (transitively) triggered starts
earlier.  Two conservatisms from the paper are preserved:

* the CPU/parse gap between a parent finishing and a child starting is
  kept unchanged ("in an effort to model browsers' dependency graph
  computation time");
* among coalescable requests launched concurrently, only the *minimum*
  DNS time is removed; the excess of slower lookups is retained.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.core.grouping import ServiceGrouper
from repro.web.har import HarArchive, HarEntry

#: Requests whose starts fall within this window of each other are
#: "concurrent" for the minimum-DNS conservatism.
CONCURRENCY_WINDOW_MS = 10.0


@dataclass
class ReconstructionOptions:
    """Knobs for the reconstruction model."""

    #: Drop DNS time for coalesced requests entirely (the ideal client
    #: of §6.8).  When False, DNS is retained -- Firefox's conservative
    #: behaviour of querying anyway.
    drop_dns: bool = True
    #: Respect fetch modes: requests made via fetch()/XHR or with
    #: crossorigin=anonymous cannot coalesce (§5.3).  The §4 model
    #: predates that discovery and ignores it, so the default is False.
    respect_fetch_modes: bool = False
    #: Coalescing requires HTTP/2 multiplexing on both sides; entries
    #: negotiated down to HTTP/1.1 cannot ride a shared connection.
    require_h2: bool = True


@dataclass
class ReconstructionResult:
    original: HarArchive
    reconstructed: HarArchive
    coalesced_urls: List[str]
    time_saved_ms: float

    @property
    def plt_improvement(self) -> float:
        """Fractional PLT reduction (0.27 == 27% faster)."""
        before = self.original.page.on_load
        if before <= 0:
            return 0.0
        return (before - self.reconstructed.page.on_load) / before


def _eligible(entry: HarEntry, options: ReconstructionOptions) -> bool:
    if entry.status != 200:
        return False
    if not entry.secure:  # cleartext never rides a TLS connection
        return False
    if options.respect_fetch_modes and entry.fetch_mode != "normal":
        return False
    if options.require_h2 and entry.protocol != "h2":
        return False
    return True


def reconstruct(
    archive: HarArchive,
    grouper: ServiceGrouper,
    options: Optional[ReconstructionOptions] = None,
) -> ReconstructionResult:
    """Reconstruct ``archive`` under ideal coalescing for ``grouper``."""
    options = options or ReconstructionOptions()
    entries = archive.entries_by_start()
    if not entries:
        return ReconstructionResult(
            original=archive,
            reconstructed=HarArchive(page=replace(archive.page)),
            coalesced_urls=[],
            time_saved_ms=0.0,
        )

    coalesced = _mark_coalesced(entries, grouper, options)
    dns_savings = _concurrent_dns_savings(entries, grouper, coalesced,
                                          options)

    # Index entries by path for initiator lookups.
    by_path: Dict[str, HarEntry] = {}
    for entry in entries:
        by_path.setdefault(entry.path, entry)

    new_start: Dict[int, float] = {}
    new_finish: Dict[int, float] = {}
    rebuilt: List[HarEntry] = []

    def rebuilt_finish_of_initiator(entry: HarEntry) -> Tuple[float, float]:
        """(original initiator finish, rebuilt initiator finish)."""
        initiator = by_path.get(entry.initiator_path)
        if initiator is None or initiator is entry:
            return entry.started_at, entry.started_at
        key = id(initiator)
        if key not in new_finish:
            return initiator.finished_at, initiator.finished_at
        return initiator.finished_at, new_finish[key]

    for entry in entries:
        orig_init_finish, new_init_finish = rebuilt_finish_of_initiator(
            entry
        )
        # Preserve the CPU/discovery gap between initiator and start.
        gap = max(0.0, entry.started_at - orig_init_finish)
        start = (
            new_init_finish + gap
            if entry.initiator_path else entry.started_at
        )

        timings = replace(entry.timings)
        if id(entry) in coalesced:
            timings.connect = -1.0
            timings.ssl = -1.0
            if options.drop_dns and timings.dns >= 0:
                saving = dns_savings.get(id(entry), timings.dns)
                remainder = timings.dns - saving
                timings.dns = remainder if remainder > 1e-9 else -1.0
            # Reused connections also shed speculative blocked time.
            timings.blocked = min(timings.blocked, 1.0)

        new_entry = replace(entry, started_at=start, timings=timings,
                            coalesced=(id(entry) in coalesced
                                       or entry.coalesced))
        rebuilt.append(new_entry)
        new_start[id(entry)] = start
        new_finish[id(entry)] = start + timings.total()

    on_load = max(new_finish.values()) - min(
        entry.started_at for entry in entries
    )
    page = replace(
        archive.page,
        on_load=on_load,
        on_content_load=min(archive.page.on_content_load, on_load),
        # An ideal client has no speculative racing connections.
        extra_tls_connections=0,
    )
    reconstructed = HarArchive(page=page, entries=rebuilt)
    return ReconstructionResult(
        original=archive,
        reconstructed=reconstructed,
        coalesced_urls=[
            entry.url for entry in entries if id(entry) in coalesced
        ],
        time_saved_ms=archive.page.on_load - on_load,
    )


def _mark_coalesced(
    entries: List[HarEntry],
    grouper: ServiceGrouper,
    options: ReconstructionOptions,
) -> Set[int]:
    """First request per service keeps its connection; later ones ride it."""
    seen_services: Set[str] = set()
    coalesced: Set[int] = set()
    for entry in entries:
        service = grouper(entry) if _eligible(entry, options) else None
        if service is None:
            continue
        if service in seen_services:
            # Only requests that actually paid for a new connection
            # gain anything from coalescing.
            if entry.timings.used_new_connection or entry.timings.used_dns:
                coalesced.add(id(entry))
        else:
            seen_services.add(service)
    return coalesced


def _concurrent_dns_savings(
    entries: List[HarEntry],
    grouper: ServiceGrouper,
    coalesced: Set[int],
    options: ReconstructionOptions,
) -> Dict[int, float]:
    """Per-entry DNS time removable under the min-of-concurrent rule."""
    savings: Dict[int, float] = {}
    groups: Dict[Tuple[str, int], List[HarEntry]] = {}
    for entry in entries:
        if id(entry) not in coalesced or entry.timings.dns < 0:
            continue
        service = grouper(entry)
        window = int(entry.started_at // CONCURRENCY_WINDOW_MS)
        groups.setdefault((service or "", window), []).append(entry)
    for group in groups.values():
        saving = min(entry.timings.dns for entry in group)
        for entry in group:
            savings[id(entry)] = saving
    return savings
