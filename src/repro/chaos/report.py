"""Blast-radius accounting: per-fault tallies and the ChaosReport.

The paper's motivation for this subsystem is the asymmetry coalescing
creates: one connection carries many hostnames, so one fault hits all
of them at once (§6.7 saw exactly this in the wild).  The injector
attributes every connection it kills to the fault that killed it and
records how much was riding it; a :class:`ChaosReport` aggregates the
tallies shard-by-shard so the numbers stay ``--jobs``-deterministic.

Tallies are plain summable counters plus a distinct-user set, and a
shard ships its injector's tallies as themselves (pickled by a pool
worker, live in-process), so shard merge is just counter addition +
set union in shard order -- the same merge shape as metrics and audit
streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

from repro.audit.record import canonical_json


@dataclass
class FaultTally:
    """What one fault did across a run (or one shard of it)."""

    name: str
    kind: str
    #: Window activations (at most once per shard).
    fired: int = 0
    #: Individual effect applications (connections killed, DNS answers
    #: faulted, handshakes failed, listeners pulled, ...).
    events: int = 0
    #: Established connections this fault tore down.
    connections_lost: int = 0
    #: Lost connections that were carrying more than one hostname --
    #: the coalescing blast the paper worries about.
    coalesced_lost: int = 0
    #: Sum over lost connections of distinct hostnames riding them.
    hostnames_affected: int = 0
    #: Sum over lost connections of requests already served on them.
    requests_affected: int = 0
    #: Torn-down connections that never completed their handshake
    #: (nothing was riding them; excluded from the blast radius).
    immature_lost: int = 0
    #: Distinct client endpoints that lost a connection.
    clients: Set[str] = field(default_factory=set)

    @property
    def users_affected(self) -> int:
        return len(self.clients)

    @property
    def mean_blast_radius(self) -> float:
        """Mean hostnames per lost connection; 0.0 if nothing was lost."""
        if not self.connections_lost:
            return 0.0
        return self.hostnames_affected / self.connections_lost

    def to_doc(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "fired": self.fired,
            "events": self.events,
            "connections_lost": self.connections_lost,
            "coalesced_lost": self.coalesced_lost,
            "hostnames_affected": self.hostnames_affected,
            "requests_affected": self.requests_affected,
            "immature_lost": self.immature_lost,
            "clients": sorted(self.clients),
        }

    def absorb(self, other: "FaultTally") -> None:
        if (other.name, other.kind) != (self.name, self.kind):
            raise ValueError(
                f"cannot merge tally {other.name!r}/{other.kind!r} "
                f"into {self.name!r}/{self.kind!r}"
            )
        self.fired += other.fired
        self.events += other.events
        self.connections_lost += other.connections_lost
        self.coalesced_lost += other.coalesced_lost
        self.hostnames_affected += other.hostnames_affected
        self.requests_affected += other.requests_affected
        self.immature_lost += other.immature_lost
        self.clients |= other.clients


@dataclass
class ChaosReport:
    """Shard-merged outcome of one chaos run."""

    policy: str = "chromium"
    schedule_source: str = "<none>"
    sites: int = 0
    seed: int = 0
    shards: int = 1
    #: Tallies in schedule order (the order is part of the canonical
    #: serialization, so it must not depend on dict iteration of
    #: anything non-deterministic).
    tallies: List[FaultTally] = field(default_factory=list)
    #: Requests retried at least once / that ran out of retries,
    #: counted once per request by each shard's browser engine.
    requests_retried: int = 0
    requests_exhausted: int = 0
    #: Crawl-level context for the robustness-vs-savings tradeoff.
    pages_attempted: int = 0
    pages_failed: int = 0
    connections_opened: int = 0

    @property
    def connections_lost(self) -> int:
        return sum(t.connections_lost for t in self.tallies)

    @property
    def coalesced_lost(self) -> int:
        return sum(t.coalesced_lost for t in self.tallies)

    @property
    def hostnames_affected(self) -> int:
        return sum(t.hostnames_affected for t in self.tallies)

    @property
    def requests_affected(self) -> int:
        return sum(t.requests_affected for t in self.tallies)

    @property
    def immature_lost(self) -> int:
        return sum(t.immature_lost for t in self.tallies)

    @property
    def mean_blast_radius(self) -> float:
        lost = self.connections_lost
        if not lost:
            return 0.0
        return self.hostnames_affected / lost

    def add(self, archive) -> None:
        """Count one crawled page (the report is a page sink,
        :func:`repro.dataset.shard.crawl_shards`'): attempted, failed,
        or successful with its new connections."""
        self.pages_attempted += 1
        if archive.page.success:
            self.connections_opened += archive.new_connection_count()
        else:
            self.pages_failed += 1

    def absorb_tallies(self, tallies: Sequence[FaultTally]) -> None:
        """Add one shard's tallies (in schedule order) into the
        report's own, which the first shard starts at zero, so the
        report never aliases a shard's objects."""
        if not self.tallies:
            self.tallies = [FaultTally(t.name, t.kind) for t in tallies]
        if len(tallies) != len(self.tallies):
            raise ValueError(
                f"shard produced {len(tallies)} tallies, "
                f"expected {len(self.tallies)}"
            )
        for mine, theirs in zip(self.tallies, tallies):
            mine.absorb(theirs)

    # -- canonical serialization ------------------------------------------

    def to_jsonl(self) -> str:
        """Canonical JSON-lines form: one meta line, one line per
        fault in schedule order, one totals line.  Byte-identical for
        identical runs regardless of ``--jobs``."""
        lines = [self._tagged("meta", {
            "policy": self.policy,
            "schedule": self.schedule_source,
            "sites": self.sites,
            "seed": self.seed,
            "shards": self.shards,
        })]
        for tally in self.tallies:
            doc = tally.to_doc()
            doc["users_affected"] = tally.users_affected
            doc["mean_blast_radius"] = round(tally.mean_blast_radius, 6)
            doc.pop("clients")
            lines.append(self._tagged("fault", doc))
        lines.append(self._tagged("totals", {
            "connections_lost": self.connections_lost,
            "coalesced_lost": self.coalesced_lost,
            "hostnames_affected": self.hostnames_affected,
            "requests_affected": self.requests_affected,
            "immature_lost": self.immature_lost,
            "mean_blast_radius": round(self.mean_blast_radius, 6),
            "requests_retried": self.requests_retried,
            "requests_exhausted": self.requests_exhausted,
            "pages_attempted": self.pages_attempted,
            "pages_failed": self.pages_failed,
            "connections_opened": self.connections_opened,
        }))
        return "\n".join(lines) + "\n"

    @staticmethod
    def _tagged(tag: str, doc: Dict[str, object]) -> str:
        doc = dict(doc)
        doc["t"] = tag
        return canonical_json(doc)
