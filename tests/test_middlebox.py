"""§6.7: the non-compliant middlebox that tears down on ORIGIN frames."""

import numpy as np
import pytest

from repro.browser import BrowserContext, BrowserEngine, FirefoxPolicy
from repro.dataset.world import build_world
from repro.deployment import BuggyMiddlebox, DeploymentExperiment
from repro.deployment.experiment import deployment_world_config
from repro.h2 import H2ClientSession, TlsClientConfig
from repro.telemetry import Telemetry
from repro.transport.framing import REC_APPDATA, parse_records
from tests.test_browser_pool import open_count


@pytest.fixture(scope="module")
def world_and_experiment():
    world = build_world(deployment_world_config(site_count=120, seed=77))
    experiment = DeploymentExperiment(world)
    experiment.reissue_certificates()
    return world, experiment


def load_site(world, site, policy=None):
    context = BrowserContext(
        network=world.network,
        client_host=world.client_host,
        resolver=world.make_resolver(),
        trust_store=world.trust_store,
        authorities=world.authorities,
        policy=policy or FirefoxPolicy(origin_frames=True),
        asdb=world.asdb,
    )
    return BrowserEngine(context).load_blocking(site.hosted.record.page)


class TestMiddleboxBug:
    def test_origin_frame_kills_protected_clients(self,
                                                  world_and_experiment):
        world, experiment = world_and_experiment
        experiment.enable_origin_frames()
        middlebox = BuggyMiddlebox(
            world.network,
            protected_clients={world.client_host.name},
        )
        middlebox.install()
        try:
            site = experiment.sample[0]
            archive = load_site(world, site)
            # The TLS connection died when the ORIGIN frame crossed the
            # middlebox; the page cannot load.
            assert not archive.page.success
            assert middlebox.stats.unknown_frames_seen > 0
            assert middlebox.stats.connections_torn_down > 0
        finally:
            middlebox.uninstall()
            experiment.disable_origin_frames()

    def test_unprotected_clients_unaffected(self, world_and_experiment):
        world, experiment = world_and_experiment
        experiment.enable_origin_frames()
        middlebox = BuggyMiddlebox(
            world.network, protected_clients={"some-other-client"},
        )
        middlebox.install()
        try:
            archive = load_site(world, experiment.sample[0])
            assert archive.page.success
            assert middlebox.stats.connections_inspected == 0
        finally:
            middlebox.uninstall()
            experiment.disable_origin_frames()

    def test_no_origin_frames_no_breakage(self, world_and_experiment):
        """Before the deployment, the buggy agent passed all traffic --
        RFC 7540 frames are all in its known set."""
        world, experiment = world_and_experiment
        middlebox = BuggyMiddlebox(
            world.network, protected_clients={world.client_host.name},
        )
        middlebox.install()
        try:
            archive = load_site(world, experiment.sample[0])
            assert archive.page.success
            assert middlebox.stats.frames_inspected > 0
            assert middlebox.stats.connections_torn_down == 0
        finally:
            middlebox.uninstall()

    def test_vendor_fix_restores_service(self, world_and_experiment):
        """September 2022: unknown frames are ignored, pages load even
        with ORIGIN live."""
        world, experiment = world_and_experiment
        experiment.enable_origin_frames()
        middlebox = BuggyMiddlebox(
            world.network,
            protected_clients={world.client_host.name},
        )
        middlebox.fix()
        middlebox.install()
        try:
            archive = load_site(world, experiment.sample[0])
            assert archive.page.success
            # The agent still *saw* the unknown frame, it just ignored
            # it as the spec requires.
            assert middlebox.stats.unknown_frames_seen > 0
            assert middlebox.stats.connections_torn_down == 0
        finally:
            middlebox.uninstall()
            experiment.disable_origin_frames()

    def test_pausing_origin_restores_service_with_buggy_box(
        self, world_and_experiment
    ):
        """The CDN's mitigation: pause ORIGIN until the vendor ships."""
        world, experiment = world_and_experiment
        experiment.enable_origin_frames()
        experiment.disable_origin_frames()  # pause
        middlebox = BuggyMiddlebox(
            world.network,
            protected_clients={world.client_host.name},
        )
        middlebox.install()
        try:
            archive = load_site(world, experiment.sample[0])
            assert archive.page.success
        finally:
            middlebox.uninstall()


class _RstInjector:
    """An on-path box that silently RSTs the first TCP connection after
    ``kill_after`` client-to-server application-data records.

    The handshake and the first requests pass, so by the time the abort
    fires the pool holds the connection and later requests are in
    flight on it -- the sharpest case for eviction bookkeeping.
    """

    def __init__(self, client_name, kill_after=5):
        self.client_name = client_name
        self.kill_after = kill_after
        self.installed = False
        self.aborts = 0

    def __call__(self, client, server_ip, port, client_end, server_end):
        if client.name != self.client_name or self.installed:
            return
        self.installed = True
        buffer = [b""]
        seen = [0]

        def inspect(data):
            buffer[0] += data
            records, buffer[0] = parse_records(buffer[0])
            for record_type, _ in records:
                if record_type == REC_APPDATA:
                    seen[0] += 1
                    if seen[0] >= self.kill_after:
                        self.aborts += 1
                        return False
            return True

        client_end.outbound_inspector = inspect


class TestMidPathRst:
    """A mid-path RST while the pool holds the connection: every
    in-flight request fails exactly once and the dead entry is
    evicted."""

    def load_with_rst(self, world, experiment):
        telemetry = Telemetry(clock=world.network.loop.now,
                              trace=False, audit=True)
        injector = _RstInjector(world.client_host.name)
        world.network.add_tap(injector)
        try:
            context = BrowserContext(
                network=world.network,
                client_host=world.client_host,
                resolver=world.make_resolver(),
                trust_store=world.trust_store,
                authorities=world.authorities,
                policy=FirefoxPolicy(origin_frames=True),
                asdb=world.asdb,
                telemetry=telemetry,
            )
            archives = []
            load = BrowserEngine(context).load(
                experiment.sample[0].hosted.record.page, archives.append
            )
            world.network.loop.run_until_idle()
        finally:
            world.network.remove_tap(injector)
        assert injector.aborts == 1  # the RST actually fired
        (archive,) = archives
        return archive, load, telemetry

    def test_inflight_requests_fail_with_one_decision_each(
        self, world_and_experiment
    ):
        world, experiment = world_and_experiment
        archive, _, telemetry = self.load_with_rst(world, experiment)
        failed = [e for e in archive.entries if e.status == 0]
        assert failed  # something was in flight when the RST landed
        # The page as a whole survived on replacement connections.
        assert any(e.status == 200 for e in archive.entries)
        decisions = [e for e in telemetry.audit.events
                     if e.kind == "decision"]
        # One final verdict per request, failed ones included: the
        # abort path must not double-record or drop the decision.
        assert len(decisions) == len(archive.entries)
        for entry in failed:
            matching = [
                e for e in decisions
                if e.hostname == entry.hostname and e.path == entry.path
                and e.attrs.get("status") == 0
            ]
            assert len(matching) == 1
            # The verdict keeps the routing decision (how the request
            # was placed); status 0 is what records the mid-path death.
            assert matching[0].decision == "same-host"

    def test_dead_connection_evicted_from_pool(self,
                                               world_and_experiment):
        world, experiment = world_and_experiment
        _, load, _ = self.load_with_rst(world, experiment)
        pool = load.pool
        # After a prune, no aborted session may remain anywhere in the
        # registry.
        open_count(pool)
        assert all(
            not facts.session.closed and facts.session.failed is None
            for facts in pool.connections
        )
        assert pool.stats.pruned_connections >= 1
