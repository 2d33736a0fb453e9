"""The benchmark's workloads: the `repro` command line each one runs,
why it exists, and how its artifacts are read.

A workload is described from the outside only -- an argv for
``python -m repro`` and the files that argv leaves behind.  Paths in
an argv are relative to the run directory ``RUN`` (rewritten by
:func:`Workload.argv`), except the pinned fault schedule, which is
named relative to the repository root so the chaos report and stdout
(which echo the schedule path) do not depend on where the checkout
lives.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

#: The fault schedule, relative to the repository root (the children's
#: working directory).
FAULTS = "benchmarks/perf/faults_bench.toml"

#: Sites / users per size class.  ``full`` is what every recorded
#: number uses; ``setup`` is the smallest size, run to time the fixed
#: per-invocation cost; ``smoke`` is the harness self-test.
SIZES = {
    "full": {"sites": 96, "users": 28, "chaos_sites": 96},
    "setup": {"sites": 8, "users": 6, "chaos_sites": 8},
    "smoke": {"sites": 16, "users": 8, "chaos_sites": 16},
}

#: Half-width of the seed-derived path-delay jitter: the resolver RTT
#: (``--dns-latency``, default 48 ms) moves by up to +-4 ms and the
#: traffic window (``--duration``, 30 s) by up to +-0.5 s.
DNS_JITTER_MS = 4.0
DURATION_JITTER_S = 0.5


def seed_unit(seed: int) -> float:
    """A number in [-1, 1) made from the benchmark seed."""
    digest = hashlib.sha256(f"perf-seed:{int(seed)}".encode()).digest()
    return int.from_bytes(digest[:4], "big") / 2 ** 31 - 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``crawl`` | ``traffic`` | ``chaos`` -- picks the artifact reader.
    kind: str
    jobs: int = 1
    observed: bool = False

    def argv(self, world: int, seed: int, size: str, run_dir: str) -> List[str]:
        """The ``repro`` argv: ``world`` is the dataset seed (which
        synthetic web), ``seed`` perturbs the path delay."""
        n = SIZES[size]
        unit = seed_unit(seed)
        jobs = str(min(self.jobs, os.cpu_count() or 1))
        run = run_dir.rstrip("/")
        if self.kind == "traffic":
            return [
                "traffic", "--users", str(n["users"]), "--sites", "16",
                "--seed", str(world),
                "--duration", f"{30.0 + DURATION_JITTER_S * unit:.3f}",
                "--scenario", "origin", "--edge-capacity", "24",
                "--shards", "2", "--jobs", jobs,
                "--out", f"{run}/agg.jsonl",
            ]
        latency = f"{48.0 + DNS_JITTER_MS * unit:.2f}"
        if self.kind == "chaos":
            # --audit is added to the issue's argv: the audit stream's
            # one-decision-per-request lines are the only artifact that
            # counts the requests a --no-cache chaos run attempted.
            return [
                "chaos", "--sites", str(n["chaos_sites"]),
                "--seed", str(world), "--shards", "12", "--jobs", jobs,
                "--no-cache", "--dns-latency", latency,
                "--schedule", FAULTS,
                "--out", f"{run}/report.jsonl",
                "--audit", f"{run}/a.jsonl",
            ]
        argv = [
            "crawl", "--sites", str(n["sites"]), "--seed", str(world),
            "--shards", "4", "--jobs", jobs,
            "--cache-dir", f"{run}/cache", "--refresh", "--tables", "all",
            "--dns-latency", latency,
        ]
        if self.observed:
            argv += ["--trace", f"{run}/t.jsonl", "--audit", f"{run}/a.jsonl",
                     "--ledger", f"{run}/led"]
        return argv


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "crawl_serial",
        "default user path: a cold browser session per page, so DNS, TLS "
        "and h2 set-up and framing dominate; collectors are off",
        "crawl"),
    Workload(
        "crawl_fanout",
        "the crawl_serial argv at --jobs 2: only pool start-up, per-worker "
        "re-plan and world build, HAR JSON hand-off and merge can differ",
        "crawl", jobs=2),
    Workload(
        "crawl_observed",
        "the crawl_serial argv plus --trace/--audit/--ledger: telemetry, "
        "audit and obs do their most work here and almost none in crawl_serial",
        "crawl", observed=True),
    Workload(
        "traffic_warm",
        "persistent engines on one event loop with warm caches and large "
        "bodies: DATA/WINDOW_UPDATE cost per byte dominates, set-up vanishes",
        "traffic"),
    Workload(
        "chaos_faulted",
        "error paths of the same stack (GOAWAY, reset, refused dials, "
        "SERVFAIL, retry timers) over 12 small shards, each paying a world build",
        "chaos"),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}

#: The three workloads that must produce one archive and one stdout.
CRAWL_TRIO = ("crawl_serial", "crawl_fanout", "crawl_observed")

#: How each kind's stdout must begin, given the sites or users asked for.
FIRST_LINE = {"crawl": "crawled {} sites ", "traffic": "simulated {} users, ",
              "chaos": "chaos: crawled {} sites "}

SIM_COUNTS = (
    "pages", "requests", "connections", "tls_handshakes", "dns_lookups",
    "coalesced_requests", "bytes", "goaways", "retries",
    "connections_lost", "spans", "audit_events",
)


# -- reading a finished run -------------------------------------------------

def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _jsonl(path: Path) -> List[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _one(run_dir: Path, pattern: str) -> Path:
    found = sorted(run_dir.glob(pattern))
    if len(found) != 1:
        raise FileNotFoundError(
            f"expected one {pattern} under {run_dir}, found {len(found)}")
    return found[0]


def _ledger_digest(path: Path) -> str:
    """The ledger record with the ``git`` meta field removed (it names
    the checkout, not the run)."""
    lines = []
    for doc in _jsonl(path):
        doc.pop("git", None)
        lines.append(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    return _sha256("\n".join(lines).encode())


@dataclass
class RunReading:
    """What one finished child left behind."""

    digests: Dict[str, str]
    sim: Dict[str, int]
    attempted: int
    failed: int
    problems: List[str]


def read_run(workload: Workload, run_dir: Path, stdout: Path,
             expect_pages: int) -> RunReading:
    """Digest the canonical artifacts, count the simulated statistics,
    and check the output against what the argv asked for.

    Raises if an artifact the argv named is missing or unparsable.
    """
    text = stdout.read_bytes()
    digests = {"stdout": _sha256(text)}
    sim = dict.fromkeys(SIM_COUNTS, 0)
    problems: List[str] = []
    first_line = text.decode("utf-8", "replace").split("\n", 1)[0]

    audit: List[dict] = []
    audit_path = run_dir / "a.jsonl"
    if audit_path.exists():
        digests["audit"] = _sha256(audit_path.read_bytes())
        audit = _jsonl(audit_path)
        sim["audit_events"] = len(audit)
        sim["goaways"] = sum(e["reason"] == "H2_GOAWAY" for e in audit)
        sim["retries"] = sum(e["kind"] == "retry" for e in audit)

    if workload.kind == "crawl":
        archive = _one(run_dir, "cache/crawl-*.jsonl")
        digests["archive"] = _sha256(archive.read_bytes())
        pages = _jsonl(archive)
        entries = [e for page in pages for e in page["entries"]]
        extra = sum(p["page"]["extra_tls_connections"] for p in pages)
        sim["pages"] = len(pages)
        sim["requests"] = len(entries)
        sim["connections"] = extra + sum(
            e["timings"]["connect"] >= 0 for e in entries)
        sim["tls_handshakes"] = extra + sum(
            e["timings"]["ssl"] >= 0 for e in entries)
        sim["dns_lookups"] = sum(e["timings"]["dns"] >= 0 for e in entries)
        sim["coalesced_requests"] = sum(bool(e["coalesced"]) for e in entries)
        sim["bytes"] = sum(e["transfer_size"] for e in entries)
        attempted = len(entries)
        failed = sum(not 200 <= e["status"] < 400 for e in entries)
        if workload.observed:
            spans = run_dir / "t.jsonl"
            digests["spans"] = _sha256(spans.read_bytes())
            with open(spans, "rb") as handle:
                sim["spans"] = sum(1 for _ in handle)
            digests["ledger"] = _ledger_digest(_one(run_dir, "led/*.jsonl"))
            decisions = sum(e["kind"] == "decision" for e in audit)
            if decisions != len(entries):
                problems.append(
                    f"{decisions} audited decisions for {len(entries)} requests")
    elif workload.kind == "traffic":
        path = run_dir / "agg.jsonl"
        digests["aggregate"] = _sha256(path.read_bytes())
        docs = _jsonl(path)
        meta = next(d for d in docs if d["kind"] == "meta")
        totals = next(d for d in docs if d["kind"] == "totals")
        cohorts = [d for d in docs if d["kind"] == "cohort"]
        sim["pages"] = sum(c["visits"] for c in cohorts)
        sim["requests"] = totals["requests"]
        sim["connections"] = totals["connections"]
        sim["tls_handshakes"] = totals["handshakes"]
        sim["dns_lookups"] = meta["dns_queries"]
        sim["coalesced_requests"] = totals["coalesced_requests"]
        sim["goaways"] = totals["goaways"]
        sim["retries"] = meta["retries"]
        attempted = sim["pages"] - sum(c["inaccessible"] for c in cohorts)
        failed = sum(c["failed"] for c in cohorts)
        completed = sum(c["completed"] for c in cohorts)
        if completed + failed != attempted:
            problems.append(
                f"{completed} completed + {failed} failed != "
                f"{attempted} visits to accessible sites")
    else:
        path = run_dir / "report.jsonl"
        digests["chaos_report"] = _sha256(path.read_bytes())
        totals = next(d for d in _jsonl(path) if d["t"] == "totals")
        sim["pages"] = totals["pages_attempted"]
        sim["requests"] = sum(e["kind"] == "decision" for e in audit)
        sim["connections"] = totals["connections_opened"]
        sim["tls_handshakes"] = sum(e["kind"] == "tls" for e in audit)
        sim["dns_lookups"] = sum(
            e["reason"] == "DNS_WIRE_QUERY" for e in audit)
        sim["retries"] = totals["requests_retried"]
        sim["connections_lost"] = totals["connections_lost"]
        attempted = sim["requests"]
        failed = totals["requests_exhausted"]
    if not first_line.startswith(FIRST_LINE[workload.kind].format(expect_pages)):
        problems.append(f"stdout starts {first_line!r}")
    if sim["pages"] < 1 or attempted < 1:
        problems.append("the run attempted no operation")
    return RunReading(digests, sim, attempted, failed, problems)


def planned_pages(workload: Workload, size: str) -> int:
    """Sites (crawl, chaos) or users (traffic) the argv asks for; the
    traffic page count is the visit count, read from the aggregate."""
    n = SIZES[size]
    return {"crawl": n["sites"], "traffic": n["users"],
            "chaos": n["chaos_sites"]}[workload.kind]
