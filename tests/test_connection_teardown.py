"""Closed connections free by reference counting.

Every layer of a connection hangs callbacks on the layer below it (the
session on its TLS channel, the channel on its transport), and every
such callback is a reference cycle while the connection is open.
Teardown drops them once they can no longer fire, so a closed
connection's objects are freed the moment it closes instead of waiting
for the cyclic collector -- a traffic shard's memory then grows with
the connections that are live, not with every connection it opened.

The check: collect, set :data:`gc.DEBUG_SAVEALL` (the collector then
keeps what it would have freed), drain a simulation, collect again,
and look for connection-layer objects among the saved garbage.
"""

import gc

from repro.browser import BrowserContext, BrowserEngine, FirefoxPolicy
from repro.chaos import DEFAULT_RETRY_POLICY, load_fault_schedule
from repro.dataset.crawler import CrawlParams
from repro.dataset.generator import DatasetConfig
from repro.dataset.shard import (
    crawl_shard,
    plan_shards,
    plan_slices,
)
from repro.dataset.world import build_world
from repro.deployment import BuggyMiddlebox, DeploymentExperiment
from repro.deployment.experiment import deployment_world_config
from repro.h2.client import H2ClientSession
from repro.h2.connection import H2Connection
from repro.h2.http1 import H1ClientProtocol, H1ServerProtocol
from repro.h2.server import ServerConnection
from repro.h2.stream import Stream
from repro.h2.tls_channel import TlsChannel
from repro.netsim import EventLoop, LatencyModel, Transport
from repro.traffic import (
    ScenarioConfig,
    plan_replica,
    plan_user_shards,
    simulate_shard,
)

#: Subclasses count too: the QUIC channels, session and server
#: connection derive from these.
CONNECTION_LAYER = (
    Transport, TlsChannel, H2ClientSession, ServerConnection,
    H1ClientProtocol, H1ServerProtocol, H2Connection, Stream,
)


def cyclic_garbage(drain):
    """Connection-layer objects that only the cyclic collector could
    free after ``drain()``, by type name."""
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        drain()
        gc.collect()
        found = [type(obj).__name__ for obj in gc.garbage
                 if isinstance(obj, CONNECTION_LAYER)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return sorted(found)


def crawl(sites, seed=2022, shards=1, **params):
    spec = plan_shards(DatasetConfig(site_count=sites, seed=seed),
                       shards)[0]
    records = next(plan_slices([spec]))
    return lambda: crawl_shard(spec, records, CrawlParams(**params))


class TestHarness:
    def test_sees_a_cycle_through_a_transport(self):
        """A transport whose callback holds it is caught, so an empty
        result below means no cycles, not a blind check."""

        def drain():
            client, _ = Transport.pair(EventLoop(), LatencyModel(),
                                       "a", "b", "10.0.0.1", "10.0.0.2")
            client.on_data = lambda data: client

        assert cyclic_garbage(drain) == ["Transport", "Transport"]


class TestTransportRelease:
    def pair(self):
        loop = EventLoop()
        client, server = Transport.pair(loop, LatencyModel(), "a", "b",
                                        "10.0.0.1", "10.0.0.2")
        for end in (client, server):
            end.on_data = end.on_close = lambda *args: None
            end.outbound_inspector = lambda data: True
        return loop, client, server

    @staticmethod
    def released(end):
        return (end.on_data, end.on_close,
                end.outbound_inspector) == (None, None, None)

    def test_close_then_fin(self):
        loop, client, server = self.pair()
        client.close()
        assert self.released(client)
        assert not self.released(server) and client.peer is server
        loop.run_until_idle()
        assert server.closed and self.released(server)
        assert client.peer is None and server.peer is None

    def test_abort_releases_both_ends(self):
        _, client, server = self.pair()
        server.abort()
        assert self.released(client) and self.released(server)
        assert client.peer is None and server.peer is None

    def test_on_close_runs_before_release(self):
        loop, client, server = self.pair()
        seen = []
        server.on_close = lambda: seen.append(server.on_data is not None)
        client.close()
        loop.run_until_idle()
        assert seen == [True]


class TestNoCyclicConnectionGarbage:
    def test_crawl(self):
        assert cyclic_garbage(crawl(8)) == []

    def test_h3_crawl(self):
        assert cyclic_garbage(crawl(8, alpn="h2,h3")) == []

    def test_traffic_shard_with_goaways(self):
        scenario = ScenarioConfig(
            users=16, site_count=6, seed=2022, duration_ms=8_000.0,
            mean_visits_per_user=2.0, bucket_ms=2_000.0, edge_capacity=2,
        )
        shard = plan_user_shards(scenario, 1)[0]
        records = plan_replica(scenario)
        results = []
        assert cyclic_garbage(
            lambda: results.append(simulate_shard(shard, records, ()))) == []
        assert results[0].payload.totals.goaways > 0

    def test_every_fault_kind(self):
        spec = plan_shards(DatasetConfig(site_count=24, seed=7), 2)[0]
        records = next(plan_slices([spec]))
        schedule = load_fault_schedule("tests/data/faults_every_kind.toml")
        assert cyclic_garbage(lambda: crawl_shard(
            spec, records, CrawlParams(seed=7, alpn="h2,h3"),
            chaos=(schedule, DEFAULT_RETRY_POLICY),
        )) == []

    def test_middlebox_abort(self):
        world = build_world(deployment_world_config(site_count=40, seed=77))
        experiment = DeploymentExperiment(world)
        experiment.reissue_certificates()
        experiment.enable_origin_frames()
        middlebox = BuggyMiddlebox(
            world.network, protected_clients={world.client_host.name},
        )
        middlebox.install()
        engine = BrowserEngine(BrowserContext(
            network=world.network,
            client_host=world.client_host,
            resolver=world.make_resolver(),
            trust_store=world.trust_store,
            authorities=world.authorities,
            policy=FirefoxPolicy(origin_frames=True),
            asdb=world.asdb,
        ))
        page = experiment.sample[0].hosted.record.page
        assert cyclic_garbage(lambda: engine.load_blocking(page)) == []
        assert middlebox.stats.connections_torn_down > 0

