"""Unit tests for deployment pieces: the analysis helpers, and the
certificate swap every reissue goes through."""

import pytest

from repro.dataset.profiles import POPULAR_PROVIDER_BY_HOSTNAME
from repro.dataset.world import build_world
from repro.deployment.experiment import (
    DeploymentExperiment,
    Group,
    deploy_origin,
    deployment_world_config,
    fleet_origin_plan,
)
from repro.deployment.longitudinal import DailyRates
from repro.deployment.passive import LogRecord


class TestDailyRates:
    def make(self):
        return DailyRates(
            days=[0, 1, 2, 3, 4, 5],
            experiment=[20, 21, 5, 5, 20, 19],
            control=[20, 22, 20, 21, 20, 20],
            deployment_window=(2, 4),
        )

    def test_window_membership(self):
        rates = self.make()
        assert not rates.in_window(1)
        assert rates.in_window(2)
        assert rates.in_window(3)
        assert not rates.in_window(4)

    def test_reduction_during(self):
        rates = self.make()
        # experiment 5 vs control 20.5 -> ~75.6% reduction.
        assert rates.reduction_during_deployment() == pytest.approx(
            1 - 5 / 20.5
        )

    def test_reduction_outside_is_small(self):
        rates = self.make()
        assert abs(rates.reduction_outside_deployment()) < 0.05

    def test_no_window_means_no_reduction(self):
        rates = DailyRates(days=[0], experiment=[1], control=[2],
                           deployment_window=None)
        assert rates.reduction_during_deployment() == 0.0
        assert not rates.in_window(0)

    def test_mean_rate_handles_missing_days(self):
        rates = self.make()
        assert rates.mean_rate(Group.CONTROL, [99]) == 0.0


class TestLogRecord:
    def test_flag_bit_semantics(self):
        coalesced = LogRecord(
            timestamp=0.0, connection_id=1, sni="www.site.com",
            authority="cdnjs.cloudflare.com", arrival_index=3,
            referer="https://www.site.com/", group=Group.EXPERIMENT,
            sni_host_mismatch=True,
        )
        direct = LogRecord(
            timestamp=0.0, connection_id=2,
            sni="cdnjs.cloudflare.com",
            authority="cdnjs.cloudflare.com", arrival_index=1,
            referer="https://www.site.com/", group=Group.CONTROL,
            sni_host_mismatch=False,
        )
        assert coalesced.sni_host_mismatch
        assert not direct.sni_host_mismatch
        # Records are frozen (pipeline integrity).
        with pytest.raises(Exception):
            coalesced.timestamp = 1.0


class TestReissueAfterHandshake:
    """``chain_for_sni`` is what a TLS handshake asks; its SNI index
    is built on first use, so a reissue that lands after any handshake
    must still be the chain the next one is served."""

    @pytest.fixture
    def world(self):
        return build_world(deployment_world_config(
            site_count=12, seed=2022,
        ))

    def test_sample_reissue_is_served(self, world):
        experiment = DeploymentExperiment(world)
        site = experiment.sites_in(Group.EXPERIMENT)[0]
        config = site.hosted.server.config
        before = config.chain_for_sni(site.root_hostname)[0]
        assert not before.covers(experiment.third_party)
        experiment.reissue_certificates()
        served = config.chain_for_sni(site.root_hostname)[0]
        assert served == site.hosted.certificate
        assert served.serial != before.serial
        assert served.covers(experiment.third_party)

    def test_fleet_reissue_is_served(self, world):
        popular = {
            name for name, provider in POPULAR_PROVIDER_BY_HOSTNAME.items()
            if provider == "Cloudflare"
        }
        config = world.provider_servers["Cloudflare"].config
        hosted = next(
            hosted for hosted in world.sites
            if hosted.record.provider == "Cloudflare"
            and hosted.certificate.san
        )
        snis = [hosted.record.root_hostname, *sorted(popular)]
        before = [config.chain_for_sni(sni)[0] for sni in snis]
        plan = fleet_origin_plan(hosted.record for hosted in world.sites)
        assert deploy_origin(world, plan) > 0
        for sni, old in zip(snis, before):
            served = config.chain_for_sni(sni)[0]
            assert served.serial != old.serial
            assert all(served.covers(name) for name in popular)
        assert config.chain_for_sni(snis[0])[0] == hosted.certificate
