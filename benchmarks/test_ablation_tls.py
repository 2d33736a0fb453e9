"""Ablation: TLS version vs handshake cost and page loads (§6.6).

Coalescing's connection-setup savings scale with the cost of the
handshakes it avoids: TLS 1.2 pays two round trips, TLS 1.3 one,
resumed TLS 1.3 none.
"""

from conftest import print_block

import numpy as np
import pytest

from repro.analysis import render_table
from repro.dataset.crawler import Crawler, CrawlParams
from repro.dataset.generator import DatasetConfig
from repro.dataset.world import build_world
from repro.tlspki import (
    CertificateAuthority,
    HandshakeConfig,
    TlsVersion,
    simulate_handshake,
)


def test_handshake_costs(benchmark):
    ca = CertificateAuthority("Bench CA")
    chain = ca.chain_for(ca.issue("www.example.com", ()))
    configs = {
        "TLS 1.2": HandshakeConfig(version=TlsVersion.TLS12, rtt_ms=30.0),
        "TLS 1.3": HandshakeConfig(version=TlsVersion.TLS13, rtt_ms=30.0),
        "TLS 1.3 resumed": HandshakeConfig(
            version=TlsVersion.TLS13, rtt_ms=30.0, resumed=True
        ),
    }
    benchmark(simulate_handshake, chain, configs["TLS 1.2"])
    results = {
        name: simulate_handshake(chain, config)
        for name, config in configs.items()
    }
    print_block(render_table(
        "Ablation -- handshake cost by TLS version (30ms RTT)",
        ["Version", "Duration (ms)", "RTTs", "Signature checks"],
        [
            (name, f"{r.duration_ms:.1f}", f"{r.rtts_used:.0f}",
             r.signature_checks)
            for name, r in results.items()
        ],
    ))
    assert results["TLS 1.2"].duration_ms > \
        results["TLS 1.3"].duration_ms > \
        results["TLS 1.3 resumed"].duration_ms


@pytest.fixture(scope="module")
def plt_by_tls():
    medians = {}
    for label, tls12_rate in (("all TLS 1.3", 0.0), ("all TLS 1.2", 1.0)):
        world = build_world(DatasetConfig(site_count=60, seed=4))
        crawler = Crawler(world, CrawlParams(speculative_rate=0.0))
        crawler.context.tls12_rate = tls12_rate
        result = crawler.crawl()
        medians[label] = float(np.median(
            [a.page_load_time for a in result.successes]
        ))
    return medians


def test_tls_version_page_loads(benchmark, plt_by_tls):
    benchmark(lambda: dict(plt_by_tls))
    print_block(render_table(
        "Ablation -- fleet TLS version vs median PLT",
        ["Fleet", "Median PLT (ms)"],
        [(name, f"{plt:.0f}") for name, plt in plt_by_tls.items()],
    ))
    assert plt_by_tls["all TLS 1.2"] > plt_by_tls["all TLS 1.3"]
