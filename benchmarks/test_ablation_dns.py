"""Ablation: DNS answer rotation vs IP-coalescing opportunities.

§2.3 notes DNS operators may return "any or all addresses from a set";
the ordering policy decides whether Chromium's connected-IP check and
Firefox's available-set transitivity ever fire.
"""

from conftest import print_block

import numpy as np
import pytest

from repro.analysis import render_table
from repro.dataset.crawler import Crawler, CrawlParams
from repro.dataset.generator import DatasetConfig
from repro.dataset.world import build_world
from repro.dnssim import (
    FixedOrderPolicy,
    RandomRotationPolicy,
    RoundRobinPolicy,
    SingleAddressPolicy,
)

ANSWER_POLICIES = [
    ("single-address", lambda rng: SingleAddressPolicy()),
    ("fixed-order", lambda rng: FixedOrderPolicy()),
    ("round-robin", lambda rng: RoundRobinPolicy()),
    ("random-subset", lambda rng: RandomRotationPolicy(rng,
                                                       answer_size=1)),
]


@pytest.fixture(scope="module")
def sweep():
    results = {}
    for name, factory in ANSWER_POLICIES:
        for browser_name in ("chromium", "firefox"):
            world = build_world(DatasetConfig(site_count=60, seed=9))
            world.dns_authority.answer_policy = factory(world.rng)
            result = Crawler(world, CrawlParams(
                policy=browser_name, speculative_rate=0.0)).crawl()
            ok = result.successes
            coalesced = float(np.median([
                sum(1 for e in a.entries if e.coalesced) for a in ok
            ]))
            results[(name, browser_name)] = coalesced
    return results


def test_ablation_dns_rotation(benchmark, sweep):
    benchmark(lambda: dict(sweep))
    rows = [
        (answer, browser, count)
        for (answer, browser), count in sweep.items()
    ]
    print_block(render_table(
        "Ablation -- DNS answer policy vs median coalesced requests",
        ["Answer policy", "Browser", "med coalesced/page"],
        rows,
    ))

    # A random 1-address subset destroys the IP overlap Chromium
    # needs; stable answers preserve it.
    assert sweep[("random-subset", "chromium")] <= \
        sweep[("fixed-order", "chromium")]
    # Firefox's transitivity is at least as effective as Chromium's
    # connected-set matching under every answer policy.
    for name, _ in ANSWER_POLICIES:
        assert sweep[(name, "firefox")] >= sweep[(name, "chromium")] - 0.5
