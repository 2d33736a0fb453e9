"""Integration tests for the h2-to-h3 protocol dimension: a generated
world crawled with ``--alpn h2,h3`` must demonstrate Alt-Svc upgrade,
HTTPS-RR discovery, 0-RTT and cross-hostname resumption, and a strict
handshake-time saving over the same crawl pinned to h2 -- with
identical bodies."""

import dataclasses
import hashlib
import json

import pytest

from repro.audit.reasons import ReasonCode
from repro.dataset.cache import CACHE_FORMAT_VERSION, cache_key
from repro.dataset.crawler import CrawlParams
from repro.dataset.generator import DatasetConfig
from repro.dataset.shard import crawl_shards, plan_shards

#: Smallest deterministic world exhibiting every h3 phenomenon at
#: once (fewer sites lose cross-host tickets or Alt-Svc upgrades).
CONFIG = DatasetConfig(site_count=12, seed=2022)


def crawl(alpn):
    params = CrawlParams(policy="chromium", speculative_rate=0.0,
                         alpn=alpn)
    return crawl_shards(plan_shards(CONFIG, 1), params, 1,
                        collect=(False, True))[:2]


@pytest.fixture(scope="module")
def h2_crawl():
    return crawl("h2")


@pytest.fixture(scope="module")
def h3_crawl():
    return crawl("h2,h3")


def handshake_ms(result):
    """Total pre-request handshake time across all successful pages."""
    return sum(
        max(entry.timings.connect, 0.0) + max(entry.timings.ssl, 0.0)
        for archive in result.successes
        for entry in archive.entries
    )


def body_signature(result):
    """Order-insensitive per-page request sets: h3 changes completion
    order (timing), never what was fetched."""
    return [
        (archive.page.url, archive.page.success,
         sorted((e.url, e.status, e.transfer_size)
                for e in archive.entries))
        for archive in result.archives
    ]


class TestProtocolPhenomena:
    def test_h3_requests_served(self, h3_crawl):
        result, _ = h3_crawl
        protocols = {}
        for archive in result.successes:
            for entry in archive.entries:
                protocols[entry.protocol] = \
                    protocols.get(entry.protocol, 0) + 1
        assert protocols.get("h3", 0) > 0
        assert protocols.get("h2", 0) > 0  # h2-only hosts remain h2

    def test_all_discovery_and_resumption_codes_present(self, h3_crawl):
        _, trace = h3_crawl
        counts = {}
        for event in trace.audit:
            counts[event.code] = counts.get(event.code, 0) + 1
        for code in (
            ReasonCode.ALT_SVC_UPGRADE,
            ReasonCode.HTTPS_RR_H3,
            ReasonCode.QUIC_HANDSHAKE_1RTT,
            ReasonCode.ZERO_RTT_RESUMED,
            ReasonCode.CROSS_HOST_TICKET,
        ):
            assert counts.get(code, 0) > 0, f"no {code} events"

    def test_h2_crawl_emits_no_protocol_events(self, h2_crawl):
        _, trace = h2_crawl
        protocol_codes = {
            ReasonCode.ALT_SVC_UPGRADE,
            ReasonCode.HTTPS_RR_H3,
            ReasonCode.QUIC_HANDSHAKE_1RTT,
            ReasonCode.ZERO_RTT_RESUMED,
            ReasonCode.CROSS_HOST_TICKET,
        }
        assert not any(e.code in protocol_codes for e in trace.audit)

    def test_h3_saves_handshake_time(self, h2_crawl, h3_crawl):
        h2_result, _ = h2_crawl
        h3_result, h3_trace = h3_crawl
        assert handshake_ms(h3_result) < handshake_ms(h2_result)
        saved = h3_trace.metrics.counter(
            "quic.handshake_rtts_saved"
        ).value
        assert saved > 0

    def test_bodies_identical_across_protocols(self, h2_crawl,
                                               h3_crawl):
        h2_result, _ = h2_crawl
        h3_result, _ = h3_crawl
        assert body_signature(h2_result) == body_signature(h3_result)


class TestCacheKeyStability:
    def test_key_covers_the_whole_definition_and_the_version(self):
        """Every field of the crawl definition is in the key, the
        default ``alpn`` included, under the format version -- so an
        entry written by version 1 (other flow control, hence other
        timings and connection counts; it also left ``alpn="h2"`` out)
        is never served for the same definition."""
        params = CrawlParams()

        def key_of(version, params_doc):
            return hashlib.sha256(json.dumps(
                {
                    "version": version,
                    "config": dataclasses.asdict(CONFIG),
                    "params": params_doc,
                    "shard_count": 4,
                },
                sort_keys=True, separators=(",", ":"),
            ).encode("utf-8")).hexdigest()[:32]

        document = dataclasses.asdict(params)
        assert document["alpn"] == "h2" and CACHE_FORMAT_VERSION == 2
        key = cache_key(CONFIG, params, shard_count=4)
        assert key == key_of(CACHE_FORMAT_VERSION, document)
        del document["alpn"]
        assert key != key_of(1, document)

    def test_h3_offer_addresses_a_different_entry(self):
        base = cache_key(CONFIG, CrawlParams(), shard_count=4)
        h3 = cache_key(CONFIG, CrawlParams(alpn="h2,h3"), shard_count=4)
        assert base != h3
