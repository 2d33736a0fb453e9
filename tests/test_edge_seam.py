"""The server edge as one seam: the edge consumers that watch it (the
traffic load monitor, the §5 passive pipeline) subscribe to the same
``H2Server`` lists, found through the same ``SyntheticWorld.servers()``
enumeration, without disturbing each other; the chaos injector
subscribes to nothing and acts on each server's ``live`` connections."""

import pytest

from repro.chaos import FaultInjector, FaultSchedule, FaultSpec
from repro.dataset.crawler import Crawler, CrawlParams
from repro.dataset.world import SELF_HOSTED, build_world
from repro.deployment import DeploymentExperiment, PassivePipeline
from repro.deployment.experiment import deployment_world_config
from repro.netsim.transport import Transport
from repro.traffic import EdgeLoadMonitor, TrafficAggregate


@pytest.fixture
def world():
    return build_world(deployment_world_config(site_count=8, seed=2022))


def crawl(world) -> None:
    """Load every site once, then let every connection close."""
    Crawler(world).crawl()
    world.network.loop.run_until_idle()


class TestServerEnumeration:
    def test_lists_every_server_exactly_once(self, world):
        listed = [server for _, server in world.servers()]
        assert len(listed) == len(set(listed))
        assert set(listed) == (
            set(world.provider_servers.values())
            | set(world.tail_cdn_servers.values())
            | {hosted.server for hosted in world.sites}
        )
        self_hosted = [
            hosted.server for hosted in world.sites
            if hosted.record.self_hosted
        ]
        assert self_hosted  # the 8-site world has both kinds
        assert [
            server for name, server in world.servers()
            if name == SELF_HOSTED
        ] == self_hosted

    def test_the_injector_subscribes_to_nothing_and_crashes_live(
            self, world, monkeypatch):
        """Arming adds no observer anywhere; the crash aborts exactly
        the edge's ``live`` transports, in accept order, and leaves
        ``live`` empty."""
        loop = world.network.loop
        google = world.provider_servers["Google"]
        accepted = []
        google.connection_observers.append(
            lambda event, connection: event == "accepted"
            and accepted.append(connection.channel.transport)
        )
        crash_at = 400.0  # two connections to this edge are open
        live_before, live_after, aborted = [], [], []
        loop.schedule_at(crash_at, lambda: live_before.extend(google.live))
        abort = Transport.abort

        def recording_abort(transport):
            aborted.append(transport)
            abort(transport)

        monkeypatch.setattr(Transport, "abort", recording_abort)
        subscribers = {
            server: (list(server.connection_observers),
                     list(server.request_observers))
            for _, server in world.servers()
        }
        FaultInjector(
            world,
            FaultSchedule(faults=(FaultSpec(
                name="outage", kind="edge_crash", at=crash_at,
                target=google.host.name,
            ),)),
            seed=1,
        ).arm()
        for _, server in world.servers():
            assert (server.connection_observers,
                    server.request_observers) == subscribers[server]
        # Runs after the crash: same instant, scheduled later.
        loop.schedule_at(crash_at, lambda: live_after.extend(google.live))
        crawl(world)
        assert len(live_before) == 2
        assert aborted == live_before
        assert live_before == [
            transport for transport in accepted
            if transport in live_before
        ]
        assert live_after == []


class TestSubscription:
    def test_two_subscribers_see_everything_and_detach_alone(self, world):
        aggregate = TrafficAggregate()
        monitor = EdgeLoadMonitor(world, aggregate)
        pipeline = PassivePipeline(
            DeploymentExperiment(world), sampling_rate=1.0
        )
        cdn = pipeline.experiment.cdn_server
        requests, events = [], []
        monitor.attach()
        pipeline.attach()
        cdn.request_observers.append(
            lambda connection, authority, index, headers:
                requests.append(authority)
        )
        cdn.connection_observers.append(
            lambda event, connection: events.append(event)
        )

        crawl(world)
        edge = aggregate.edges["provider:Cloudflare"]
        assert len(requests) > 0
        assert len(pipeline.records) == edge.requests == len(requests)
        assert [record.authority for record in pipeline.records] == requests
        assert events.count("accepted") == edge.connections > 0
        assert events.count("handshake") == edge.handshakes > 0
        assert events.count("closed") == events.count("accepted")

        # Detaching one subscriber leaves the others attached.
        pipeline.detach()
        logged = len(pipeline.records)
        crawl(world)
        assert len(pipeline.records) == logged
        assert edge.requests == len(requests) > logged
        monitor.detach()
        counted = edge.requests
        crawl(world)
        assert edge.requests == counted < len(requests)

    def test_subscribers_run_in_subscription_order(self, world):
        cdn = world.provider_servers["Cloudflare"]
        order = []
        for tag in ("first", "second"):
            cdn.connection_observers.append(
                lambda event, connection, tag=tag: order.append(tag)
            )
        crawl(world)
        assert order
        assert order == ["first", "second"] * (len(order) // 2)

    def test_the_pipeline_logs_the_servers_connection_numbers(
            self, world):
        """Each logged request carries its connection's number at the
        server: one number for every request on a connection, a new
        one for a connection opened after an earlier one closed, and
        h3 connections numbered alike."""
        pipeline = PassivePipeline(
            DeploymentExperiment(world), sampling_rate=1.0
        )
        cdn = pipeline.experiment.cdn_server
        site = pipeline.experiment.sample[0].hosted.record
        served, events = [], []
        pipeline.attach()
        cdn.request_observers.append(
            lambda connection, *_: served.append(connection)
        )
        cdn.connection_observers.append(
            lambda event, connection: events.append((event, connection))
        )
        engine = Crawler(world).engine
        loads = []
        for _ in range(2):
            logged = len(pipeline.records)
            engine.new_session()
            engine.load_blocking(site.page)
            world.network.loop.run_until_idle()
            loads.append({record.connection_id
                          for record in pipeline.records[logged:]})
        first, second = loads
        assert first and second and not first & second
        # The first load's connections all closed before the second
        # load's opened.
        order = [(event, connection.conn_id)
                 for event, connection in events
                 if event in ("accepted", "closed")]
        last_close = max(order.index(("closed", n)) for n in first)
        assert all(order.index(("accepted", n)) > last_close
                   for n in second)

        Crawler(world, CrawlParams(alpn="h2,h3")).crawl()
        world.network.loop.run_until_idle()
        assert any(type(connection).__name__ == "QuicServerConnection"
                   for connection in served)
        numbers = {}
        for connection, record in zip(served, pipeline.records):
            assert numbers.setdefault(
                id(connection), record.connection_id
            ) == record.connection_id
        # ``served`` holds every connection alive, so ``id()`` tells
        # them apart here: distinct connections, distinct numbers.
        assert len(set(numbers.values())) == len(numbers)

    def test_monitor_gauge_drains(self, world):
        monitor = EdgeLoadMonitor(world, TrafficAggregate())
        monitor.attach()
        crawl(world)
        assert monitor.peak_connections > 0
        assert monitor.current_connections == 0  # all drained
