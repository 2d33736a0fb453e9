"""Shared argparse plumbing: validators and option groups.

Every value-level validator lives here so ``repro run`` scenarios and
hand-typed command lines are checked by exactly the same code; the
option-group helpers (``add_dataset_options`` & co.) keep the crawl
pipeline's flags identical across the commands that share it.
"""

from __future__ import annotations

import argparse
from typing import List

from repro.browser.policy import POLICY_FACTORIES
from repro.dataset.characterize import CRAWL_TABLES
from repro.dataset.crawler import CrawlParams
from repro.runtime.console import diag

#: Kept as the CLI-facing name->factory registry (the canonical copy
#: lives in :mod:`repro.browser.policy` so crawl workers can share it).
POLICIES = POLICY_FACTORIES

#: ALPN protocols the crawl pipeline can offer.
SUPPORTED_ALPN = ("h2", "h3")

#: ``--breakdown`` tokens, in render order (mirrors ``--tables``).
BREAKDOWN_METRICS = ("dns", "tls", "validations")


def _parse_tables(spec: str) -> List[str]:
    if spec.strip().lower() == "all":
        return list(CRAWL_TABLES)
    tokens = [token.strip() for token in spec.split(",") if token.strip()]
    unknown = [token for token in tokens if token not in CRAWL_TABLES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown table(s) {','.join(unknown)}; choose from "
            f"{','.join(CRAWL_TABLES)} or 'all'"
        )
    # Render in canonical order, deduplicated.
    return [token for token in CRAWL_TABLES if token in tokens]


def _parse_alpn(spec: str) -> str:
    """Normalize ``--alpn`` (e.g. ``"h2,h3"``); h2 is mandatory."""
    tokens = [token.strip() for token in spec.split(",") if token.strip()]
    unknown = [token for token in tokens if token not in SUPPORTED_ALPN]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown protocol(s) {','.join(unknown)}; choose from "
            f"{','.join(SUPPORTED_ALPN)}"
        )
    if "h2" not in tokens:
        raise argparse.ArgumentTypeError(
            "the offer must include h2 (h3 endpoints are discovered "
            "over h2 via Alt-Svc and HTTPS records)"
        )
    # Canonical order so equivalent spellings share a cache entry.
    return ",".join(p for p in SUPPORTED_ALPN if p in tokens)


def _positive_int(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _nonnegative_int(value: str) -> int:
    count = int(value)
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {count}")
    return count


def _parse_breakdown(spec: str) -> List[str]:
    if spec.strip().lower() == "all":
        return list(BREAKDOWN_METRICS)
    tokens = [token.strip() for token in spec.split(",") if token.strip()]
    unknown = [token for token in tokens
               if token not in BREAKDOWN_METRICS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown breakdown metric(s) {','.join(unknown)}; choose "
            f"from {','.join(BREAKDOWN_METRICS)} or 'all'"
        )
    return [token for token in BREAKDOWN_METRICS if token in tokens]


def refuse_artifacts(args, command: str, sweep: str) -> None:
    """Exit 2, before any simulation, with one line naming each flag
    for a run's artifacts or gates given with ``sweep``: a policy sweep
    runs one simulation per policy and keeps no outcome to write them
    from."""
    given = [f"--{flag}" for flag in ("out", "audit", "trace", "metrics",
                                      "ledger", "slo")
             if getattr(args, flag, None)]
    if given:
        diag(f"{command}: {', '.join(given)} cannot be used with "
             f"{sweep}: the sweep writes no artifact")
        raise SystemExit(2)


# -- shared option groups -----------------------------------------------------

def add_dataset_options(p) -> None:
    """``--sites/--seed``: the synthetic-web definition."""
    p.add_argument("--sites", type=_positive_int, default=150,
                   help="synthetic sites to generate (default 150)")
    p.add_argument("--seed", type=int, default=2022)


def add_ledger_options(p) -> None:
    p.add_argument("--ledger", metavar="DIR", default=None,
                   help="append this run's record (phase latency "
                        "histograms, headline metrics, SLO "
                        "verdicts) to the ledger directory DIR; "
                        "forces the traced pipeline")
    p.add_argument("--slo", metavar="FILE", default=None,
                   help="evaluate the [[slo]] gates in FILE and "
                        "store their verdicts in the run record")


def add_crawl_pipeline_options(p) -> None:
    """Flags every crawl-pipeline command shares (shards, jobs,
    cache, instrumentation)."""
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="crawl worker processes (default 1; does "
                        "not change results)")
    p.add_argument("--shards", type=_nonnegative_int, default=0,
                   help="shard layout (default 0 = one shard per "
                        "~100 sites; part of the experiment "
                        "definition)")
    p.add_argument("--cache-dir", default=None,
                   help="crawl cache directory (default "
                        "$REPRO_CRAWL_CACHE or "
                        "~/.cache/repro/crawls)")
    p.add_argument("--no-cache", action="store_true",
                   help="neither read nor write the crawl cache")
    p.add_argument("--refresh", action="store_true",
                   help="ignore any cached crawl, re-crawl, and "
                        "overwrite the entry")
    p.add_argument("--trace", metavar="OUT", default=None,
                   help="crawl with span tracing and write the "
                        "trace to OUT: Chrome trace_event JSON "
                        "(Perfetto-loadable), or span JSONL when "
                        "OUT ends in .jsonl; bypasses cache reads")
    p.add_argument("--metrics", action="store_true",
                   help="crawl with telemetry and print the "
                        "unified metrics summary; bypasses cache "
                        "reads")
    p.add_argument("--audit", metavar="OUT", default=None,
                   help="crawl with decision auditing and write "
                        "the audit log to OUT (canonical JSONL); "
                        "bypasses cache reads")
    p.add_argument("--alpn", type=_parse_alpn, default=CrawlParams.alpn,
                   help="ALPN protocols the browser offers "
                        "(default h2; 'h2,h3' also discovers and "
                        "upgrades to QUIC endpoints)")
    p.add_argument("--dns-latency", type=float,
                   default=CrawlParams.dns_latency_ms,
                   dest="dns_latency", metavar="MS",
                   help="simulated resolver wire RTT in ms "
                        "(default 48; part of the run "
                        "fingerprint)")
    add_ledger_options(p)
