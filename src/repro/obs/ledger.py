"""Run records: one canonical JSONL document per instrumented run.

A **run record** is the durable artifact the ledger keeps per
crawl/traffic/chaos invocation.  It is deliberately boring:

* a ``meta`` line -- kind, config fingerprint (the same content
  address the crawl cache uses), seed, git describe, schema version;
* one ``phase`` line per phase histogram (DNS -> connect -> TLS ->
  TTFB -> page, keyed by policy x protocol x cohort), carrying the
  full bucket counts so any percentile can be recomputed later;
* a ``headline`` line with the paper's aggregate metrics;
* zero or more ``slo`` verdict lines (see :mod:`repro.obs.slo`).

Records are canonical JSON (sorted keys, compact separators, phases
in sorted order) and contain **no wall-clock timestamps and no worker
count**, so the same seed produces byte-identical records whatever
``--jobs`` ran it -- `cmp` is a valid determinism check, and
``repro compare`` of two identical-seed runs is guaranteed clean.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import __version__
from repro.audit.record import canonical_json
from repro.obs.phases import PHASES
from repro.telemetry.metrics import Histogram, MetricsRegistry

#: Bump when the record format changes; ``repro compare`` refuses to
#: compare across schema versions (exit 2, incomparable).
SCHEMA_VERSION = 1

#: Rank of each phase name for report/record ordering; unknown phases
#: sort after the canonical five, alphabetically.
_PHASE_RANK = {name: index for index, name in enumerate(PHASES)}


class LedgerError(ValueError):
    """A record could not be read, parsed, or resolved."""


def git_describe() -> str:
    """Best-effort ``git describe --always --dirty`` of this checkout.

    Purely informational provenance: never compared, empty when the
    package does not live in a git repository.
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def canonical_fingerprint(document: dict) -> str:
    """Content address of a run definition (sha256 of canonical JSON,
    truncated like the crawl cache's keys)."""
    import hashlib

    canonical = canonical_json(document)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


# -- phase histogram documents ---------------------------------------------


def _phase_sort_key(doc: dict) -> Tuple:
    name = doc["name"]
    short = name[len("phase."):] if name.startswith("phase.") else name
    return (_PHASE_RANK.get(short, len(PHASES)), name,
            tuple(sorted(doc["labels"].items())))


def phase_docs_from_registry(
    registry: MetricsRegistry,
) -> List[dict]:
    """Extract every ``phase.*`` histogram as a JSON-able doc, in the
    record's canonical order."""
    docs: List[dict] = []
    for metric in registry.metrics():
        if not isinstance(metric, Histogram) \
                or not metric.name.startswith("phase."):
            continue
        docs.append({
            "name": metric.name,
            "labels": dict(metric.labels),
            "bounds": [None if math.isinf(b) else b
                       for b in metric.bounds],
            "counts": list(metric.bucket_counts),
            "count": metric.count,
            "sum": round(metric.sum, 6),
            "min": None if math.isinf(metric.min)
            else round(metric.min, 6),
            "max": None if math.isinf(metric.max)
            else round(metric.max, 6),
        })
    docs.sort(key=_phase_sort_key)
    return docs


def histogram_from_doc(doc: dict) -> Histogram:
    """Rebuild a :class:`Histogram` from a phase doc (or several
    merged ones) so percentile math uses one implementation."""
    bounds = tuple(math.inf if b is None else float(b)
                   for b in doc["bounds"])
    histogram = Histogram(doc["name"], buckets=bounds)
    for index, count in enumerate(doc["counts"]):
        histogram.bucket_counts[index] += int(count)
    histogram.count = int(doc["count"])
    histogram.sum = float(doc["sum"])
    if doc.get("min") is not None:
        histogram.min = float(doc["min"])
    if doc.get("max") is not None:
        histogram.max = float(doc["max"])
    return histogram


def merge_phase_docs(docs: Sequence[dict]) -> Optional[Histogram]:
    """One histogram over several same-phase docs (e.g. every policy
    matching an SLO's filters); ``None`` when nothing matched."""
    merged: Optional[Histogram] = None
    for doc in docs:
        histogram = histogram_from_doc(doc)
        if merged is None:
            merged = histogram
            continue
        try:
            merged.merge(histogram)
        except ValueError:
            raise LedgerError(
                f"phase {doc['name']}: bucket bounds differ across "
                "merged series"
            ) from None
    return merged


# -- the record ------------------------------------------------------------


@dataclass
class RunRecord:
    """One run's canonical ledger document."""

    meta: dict
    phases: List[dict] = field(default_factory=list)
    headline: Dict[str, float] = field(default_factory=dict)
    slo: List[dict] = field(default_factory=list)

    @property
    def run_id(self) -> str:
        return self.meta.get("run", "")

    @property
    def kind(self) -> str:
        return self.meta.get("kind", "")

    @property
    def fingerprint(self) -> str:
        return self.meta.get("fingerprint", "")

    def phase_map(self) -> Dict[Tuple[str, Tuple], dict]:
        """Index phases by ``(name, sorted labels)`` for comparison."""
        return {
            (doc["name"], tuple(sorted(doc["labels"].items()))): doc
            for doc in self.phases
        }

    # -- canonical JSONL ---------------------------------------------------

    def to_jsonl(self) -> str:
        docs = [{"t": "meta", **self.meta}]
        for doc in sorted(self.phases, key=_phase_sort_key):
            docs.append({"t": "phase", **doc})
        docs.append({"t": "headline", "metrics": self.headline})
        for doc in self.slo:
            out = dict(doc)
            out["t"] = "slo"
            docs.append(out)
        return "\n".join(map(canonical_json, docs)) + "\n"

    @classmethod
    def from_jsonl(cls, text: str, source: str = "<record>"
                   ) -> "RunRecord":
        meta: Optional[dict] = None
        phases: List[dict] = []
        headline: Dict[str, float] = {}
        slo: List[dict] = []
        for number, raw in enumerate(text.splitlines(), start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                doc = json.loads(raw)
            except json.JSONDecodeError as error:
                raise LedgerError(
                    f"{source}:{number}: not JSON ({error})"
                ) from error
            if not isinstance(doc, dict):
                raise LedgerError(
                    f"{source}:{number}: record lines are JSON "
                    f"objects, got {type(doc).__name__}"
                )
            tag = doc.pop("t", None)
            if tag == "meta":
                meta = doc
            elif tag == "phase":
                if "name" not in doc or "labels" not in doc:
                    raise LedgerError(
                        f"{source}:{number}: phase line needs "
                        f"'name' and 'labels'"
                    )
                phases.append(doc)
            elif tag == "headline":
                headline = doc.get("metrics", {})
            elif tag == "slo":
                slo.append(doc)
            else:
                raise LedgerError(
                    f"{source}:{number}: unknown record line type "
                    f"{tag!r}"
                )
        if meta is None:
            raise LedgerError(f"{source}: no meta line")
        return cls(meta=meta, phases=phases, headline=headline,
                   slo=slo)


# -- builders --------------------------------------------------------------


def _base_meta(kind: str, fingerprint: str) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "run": f"{kind}-{fingerprint[:12]}",
        "fingerprint": fingerprint,
        "git": git_describe(),
        "version": __version__,
    }


def traffic_headline(aggregate) -> Dict[str, float]:
    """The fleet-level metrics of one traffic scenario run."""
    totals = aggregate.totals
    completed = aggregate.completed
    plt_total = sum(
        tally.plt_total_ms for tally in aggregate.cohorts.values()
    )
    return {
        "users": aggregate.users,
        "visits": aggregate.visits,
        "completed": completed,
        "failed": aggregate.failed,
        "retries": aggregate.retries,
        "edge_connections": totals.connections,
        "handshakes": totals.handshakes,
        "resumed": totals.resumed,
        "requests": totals.requests,
        "coalesced_requests": totals.coalesced_requests,
        "goaways": totals.goaways,
        "peak_concurrent": totals.peak_concurrent,
        "dns_queries": aggregate.dns_queries,
        "mean_plt_ms": round(
            plt_total / completed, 6
        ) if completed else 0.0,
    }


def build_crawl_record(
    kind: str,
    config,
    params,
    shard_count: int,
    fold,
    registry: MetricsRegistry,
    slo_rules: Sequence = (),
) -> RunRecord:
    """The run record of one (possibly sharded) crawl, whose pages
    ``fold`` (a :class:`~repro.dataset.characterize.CrawlFold`) folded:
    its headline is the fold's
    (:meth:`~repro.dataset.characterize.CrawlFold.headline`).

    The fingerprint is the crawl cache's own content address, so a
    record and the cache entry it rode along with agree about what
    "the same run" means.  ``jobs`` is deliberately absent.
    """
    from repro.dataset.cache import cache_key
    from repro.obs.slo import evaluate_slos

    fingerprint = cache_key(config, params, shard_count)
    meta = _base_meta(kind, fingerprint)
    meta.update(
        seed=config.seed,
        sites=config.site_count,
        policy=params.policy,
        alpn=params.alpn,
        crawl_seed=params.seed,
        speculative_rate=params.speculative_rate,
        dns_latency_ms=params.dns_latency_ms,
        shards=int(shard_count),
    )
    phases = phase_docs_from_registry(registry)
    headline = fold.headline()
    return RunRecord(
        meta=meta,
        phases=phases,
        headline=headline,
        slo=evaluate_slos(slo_rules, phases, headline),
    )


def build_traffic_record(
    scenario,
    shard_count: int,
    aggregate,
    registry: MetricsRegistry,
    slo_rules: Sequence = (),
    scenario_name: str = "",
) -> RunRecord:
    """The run record of one traffic scenario run."""
    from repro.obs.slo import evaluate_slos

    scenario_doc = dataclasses.asdict(scenario)
    fingerprint = canonical_fingerprint({
        "version": SCHEMA_VERSION,
        "scenario": scenario_doc,
        "shard_count": int(shard_count),
    })
    meta = _base_meta("traffic", fingerprint)
    meta.update(
        seed=scenario.seed,
        sites=scenario.site_count,
        users=scenario.users,
        scenario=scenario_name,
        deployment=scenario.deployment,
        cohorts=",".join(c.name for c in scenario.cohorts),
        shards=int(shard_count),
    )
    phases = phase_docs_from_registry(registry)
    headline = traffic_headline(aggregate)
    return RunRecord(
        meta=meta,
        phases=phases,
        headline=headline,
        slo=evaluate_slos(slo_rules, phases, headline),
    )


# -- ledger directory IO ---------------------------------------------------


def write_record(directory, record: RunRecord) -> Path:
    """Write ``record`` as ``<dir>/<run_id>.jsonl`` (idempotent: the
    content is a pure function of the run definition)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{record.run_id}.jsonl"
    path.write_text(record.to_jsonl(), encoding="utf-8")
    return path


def load_record(path) -> RunRecord:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise LedgerError(f"cannot read {path}: {error}") from error
    return RunRecord.from_jsonl(text, source=str(path))


def resolve_record_path(ref: str, ledger_dir=None) -> Path:
    """A record argument is a path, or a run id in the ledger dir."""
    direct = Path(ref)
    if direct.is_file():
        return direct
    if ledger_dir is not None:
        candidate = Path(ledger_dir) / f"{ref}.jsonl"
        if candidate.is_file():
            return candidate
        if not ref.endswith(".jsonl"):
            candidate = Path(ledger_dir) / ref
            if candidate.is_file():
                return candidate
    raise LedgerError(
        f"no run record at {ref!r}"
        + (f" (also tried under {ledger_dir})" if ledger_dir else "")
    )
