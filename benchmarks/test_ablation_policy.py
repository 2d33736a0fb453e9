"""Ablation: how much does each browser policy coalesce?

Separates the §2.3 behaviours on identical pages: no coalescing at
all, Chromium's connected-set IP matching, Firefox's available-set
transitivity, and the DNS-free ideal ORIGIN client (§6.8).
"""

from conftest import print_block

import numpy as np
import pytest

from repro.analysis import render_table
from repro.dataset.crawler import Crawler, CrawlParams
from repro.dataset.generator import DatasetConfig
from repro.dataset.world import build_world

POLICIES = ["none", "chromium", "firefox", "firefox+origin",
            "ideal-origin"]


@pytest.fixture(scope="module")
def per_policy_medians():
    medians = {}
    for policy in POLICIES:
        # Fresh world per policy: crawls mutate simulated time.
        world = build_world(DatasetConfig(site_count=80, seed=5))
        # Let the CDNs advertise model-derived origin sets so the
        # ORIGIN-aware policies have something to work with.
        for server in world.provider_servers.values():
            server.config.send_origin_frames = True
            hostnames = sorted(set(server.config.serves))
            server.config.origin_sets["*"] = tuple(
                f"https://{name}" for name in hostnames[:50]
            )
        result = Crawler(world, CrawlParams(policy=policy,
                                            speculative_rate=0.0)).crawl()
        ok = result.successes
        medians[policy] = {
            "tls": float(np.median([a.tls_connection_count()
                                    for a in ok])),
            "dns": float(np.median([a.dns_query_count() for a in ok])),
            "coalesced": float(np.median([
                sum(1 for e in a.entries if e.coalesced) for a in ok
            ])),
        }
    return medians


def test_ablation_policy(benchmark, per_policy_medians):
    benchmark(lambda: dict(per_policy_medians))
    rows = [
        (name, stats["dns"], stats["tls"], stats["coalesced"])
        for name, stats in per_policy_medians.items()
    ]
    print_block(render_table(
        "Ablation -- browser policy vs per-page medians",
        ["Policy", "med DNS", "med TLS", "med coalesced"],
        rows,
    ))

    stats = per_policy_medians
    # More capable policies never open more connections.
    assert stats["chromium"]["tls"] <= stats["none"]["tls"]
    assert stats["firefox"]["tls"] <= stats["chromium"]["tls"] + 0.5
    assert stats["firefox+origin"]["tls"] <= stats["firefox"]["tls"]
    assert stats["ideal-origin"]["tls"] <= stats["firefox+origin"]["tls"]
    # The ideal client also eliminates DNS queries (§6.8).
    assert stats["ideal-origin"]["dns"] <= stats["firefox+origin"]["dns"]
    # ORIGIN support strictly increases coalescing.
    assert stats["firefox+origin"]["coalesced"] >= \
        stats["firefox"]["coalesced"]
