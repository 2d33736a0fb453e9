"""Streaming, shard-mergeable traffic aggregation.

A population run never retains HAR archives or per-request records:
every finished visit and every edge event is folded into a
:class:`TrafficAggregate` immediately, so memory stays bounded by the
number of edges, cohorts, and time buckets -- not by the number of
users or requests.  Aggregates from different shards merge by
addition (peaks sum too: each shard is a replica of the edge fleet
serving its own user slice), and the canonical JSONL export is
byte-identical whatever ``--jobs`` count produced the shards.  A shard
ships its aggregate as itself (pickled by a pool worker, live
in-process); :meth:`TrafficAggregate.merge` adds it into counters the
merged aggregate owns, so nothing of a shard is aliased.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Tuple

from repro.audit.record import canonical_json


@dataclass
class LoadCounters:
    """Edge-side load counters for one edge group or time bucket."""

    connections: int = 0
    handshakes: int = 0
    resumed: int = 0
    requests: int = 0
    coalesced_requests: int = 0
    goaways: int = 0
    peak_concurrent: int = 0

    def merge(self, other: "LoadCounters") -> None:
        for spec in fields(self):
            setattr(self, spec.name,
                    getattr(self, spec.name) + getattr(other, spec.name))

    def to_dict(self) -> dict:
        return {spec.name: getattr(self, spec.name)
                for spec in fields(self)}

    @property
    def coalesced_share(self) -> float:
        return (self.coalesced_requests / self.requests
                if self.requests else 0.0)

    @property
    def resumption_rate(self) -> float:
        return self.resumed / self.handshakes if self.handshakes else 0.0


@dataclass
class CohortTally:
    """Client-side outcomes for one user cohort."""

    users: int = 0
    visits: int = 0
    revisits: int = 0
    completed: int = 0
    failed: int = 0
    inaccessible: int = 0
    requests: int = 0
    cached_responses: int = 0
    plt_total_ms: float = 0.0

    def merge(self, other: "CohortTally") -> None:
        for spec in fields(self):
            setattr(self, spec.name,
                    getattr(self, spec.name) + getattr(other, spec.name))

    def to_dict(self) -> dict:
        doc = {spec.name: getattr(self, spec.name)
               for spec in fields(self)}
        doc["plt_total_ms"] = round(self.plt_total_ms, 6)
        return doc

    @property
    def mean_plt_ms(self) -> float:
        return self.plt_total_ms / self.completed if self.completed else 0.0


@dataclass
class TrafficAggregate:
    """The complete, mergeable result of a traffic scenario run."""

    users: int = 0
    duration_ms: float = 0.0
    bucket_ms: float = 5000.0
    shard_count: int = 1
    dns_queries: int = 0
    retries: int = 0
    totals: LoadCounters = field(default_factory=LoadCounters)
    edges: Dict[str, LoadCounters] = field(default_factory=dict)
    buckets: Dict[int, LoadCounters] = field(default_factory=dict)
    cohorts: Dict[str, CohortTally] = field(default_factory=dict)

    # -- streaming entry points (used by the monitor/runner) ---------------

    def bucket_for(self, at_ms: float) -> LoadCounters:
        index = int(at_ms // self.bucket_ms)
        bucket = self.buckets.get(index)
        if bucket is None:
            bucket = self.buckets[index] = LoadCounters()
        return bucket

    def edge_for(self, name: str) -> LoadCounters:
        edge = self.edges.get(name)
        if edge is None:
            edge = self.edges[name] = LoadCounters()
        return edge

    def cohort_for(self, name: str) -> CohortTally:
        tally = self.cohorts.get(name)
        if tally is None:
            tally = self.cohorts[name] = CohortTally()
        return tally

    # -- merging -----------------------------------------------------------

    def merge(self, other: "TrafficAggregate") -> None:
        """Fold another shard's aggregate in (addition everywhere;
        always call in shard order so float sums associate the same
        way regardless of worker count)."""
        self.users += other.users
        self.duration_ms = max(self.duration_ms, other.duration_ms)
        self.dns_queries += other.dns_queries
        self.retries += other.retries
        self.totals.merge(other.totals)
        for name, counters in other.edges.items():
            self.edge_for(name).merge(counters)
        for index, counters in other.buckets.items():
            bucket = self.buckets.get(index)
            if bucket is None:
                bucket = self.buckets[index] = LoadCounters()
            bucket.merge(counters)
        for name, tally in other.cohorts.items():
            self.cohort_for(name).merge(tally)

    # -- analysis ----------------------------------------------------------

    def coalesced_share_series(self) -> List[Tuple[float, float, int]]:
        """Figure 8-style ``(bucket_start_ms, share, requests)`` rows."""
        return [
            (index * self.bucket_ms, counters.coalesced_share,
             counters.requests)
            for index, counters in sorted(self.buckets.items())
            if counters.requests
        ]

    @property
    def visits(self) -> int:
        return sum(t.visits for t in self.cohorts.values())

    @property
    def completed(self) -> int:
        return sum(t.completed for t in self.cohorts.values())

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self.cohorts.values())

    # -- canonical export --------------------------------------------------

    def to_jsonl(self) -> str:
        """Canonical JSONL: fixed section order, sorted names/indexes,
        sorted keys, compact separators -- byte-identical across
        ``--jobs`` for identical merged content."""
        lines: List[dict] = [{
            "kind": "meta",
            "users": self.users,
            "duration_ms": round(self.duration_ms, 6),
            "bucket_ms": round(self.bucket_ms, 6),
            "shards": self.shard_count,
            "dns_queries": self.dns_queries,
            "retries": self.retries,
        }]
        lines.append({"kind": "totals", **self.totals.to_dict()})
        for name in sorted(self.cohorts):
            lines.append({"kind": "cohort", "name": name,
                          **self.cohorts[name].to_dict()})
        for name in sorted(self.edges):
            lines.append({"kind": "edge", "name": name,
                          **self.edges[name].to_dict()})
        for index in sorted(self.buckets):
            lines.append({"kind": "bucket", "index": index,
                          **self.buckets[index].to_dict()})
        return "\n".join(map(canonical_json, lines)) + "\n"

