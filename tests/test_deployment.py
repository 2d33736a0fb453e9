"""Tests for the §5 deployment: sample, certs, IP/ORIGIN phases,
passive + active measurement, and the longitudinal study."""

import numpy as np
import pytest

from repro.dataset.world import build_world
from repro.deployment import (
    ActiveMeasurement,
    DeploymentExperiment,
    LongitudinalStudy,
    PassivePipeline,
)
from repro.deployment.experiment import (
    DEFAULT_CONTROL_DOMAIN,
    DEFAULT_THIRD_PARTY,
    Group,
    deployment_world_config,
)


@pytest.fixture(scope="module")
def deployed():
    """World + experiment with reissued certificates (module-scoped)."""
    world = build_world(deployment_world_config(site_count=300))
    experiment = DeploymentExperiment(world)
    experiment.reissue_certificates()
    return world, experiment


class TestSampleSelection:
    def test_sample_is_nonempty_and_grouped(self, deployed):
        _, experiment = deployed
        assert len(experiment.sample) >= 10
        assert experiment.sites_in(Group.EXPERIMENT)
        assert experiment.sites_in(Group.CONTROL)

    def test_sample_sites_hosted_by_the_cdn(self, deployed):
        _, experiment = deployed
        for site in experiment.sample:
            assert site.hosted.record.provider == "Cloudflare"

    def test_sample_sites_request_third_party(self, deployed):
        _, experiment = deployed
        for site in experiment.sample:
            hostnames = {
                r.hostname for r in site.hosted.record.page.resources
            }
            assert DEFAULT_THIRD_PARTY in hostnames

    def test_subpage_only_sites_removed(self, deployed):
        _, experiment = deployed
        assert experiment.removed_subpage_only > 0

    def test_group_lookup_by_referer(self, deployed):
        _, experiment = deployed
        site = experiment.sample[0]
        referer = f"https://{site.root_hostname}/"
        assert experiment.group_of_domain(referer) is site.group
        assert experiment.group_of_domain("https://unrelated.example/") \
            is None


class TestCertificateReissuance:
    def test_all_sample_certs_reissued(self, deployed):
        _, experiment = deployed
        for site in experiment.sample:
            assert site.reissued_certificate is not None
            assert site.reissued_certificate.serial != \
                site.original_certificate.serial

    def test_experiment_certs_cover_third_party(self, deployed):
        _, experiment = deployed
        for site in experiment.sites_in(Group.EXPERIMENT):
            assert site.reissued_certificate.covers(DEFAULT_THIRD_PARTY)
            assert not site.reissued_certificate.covers(
                DEFAULT_CONTROL_DOMAIN
            )

    def test_control_certs_cover_padding_domain_only(self, deployed):
        _, experiment = deployed
        for site in experiment.sites_in(Group.CONTROL):
            assert site.reissued_certificate.covers(DEFAULT_CONTROL_DOMAIN)
            assert not site.reissued_certificate.covers(DEFAULT_THIRD_PARTY)

    def test_byte_equal_modifications(self, deployed):
        """Figure 6: both groups' SAN additions are the same size."""
        _, experiment = deployed
        deltas = experiment.certificate_size_deltas()
        assert set(deltas[Group.EXPERIMENT]) == set(deltas[Group.CONTROL])
        assert all(delta > 0 for delta in deltas[Group.EXPERIMENT])

    def test_server_serves_renewed_chain(self, deployed):
        _, experiment = deployed
        site = experiment.sites_in(Group.EXPERIMENT)[0]
        chain = experiment.cdn_server.config.chain_for_sni(
            site.root_hostname
        )
        assert chain is not None
        assert chain[0].serial == site.reissued_certificate.serial

    def test_mismatched_control_domain_length_rejected(self, deployed):
        world, _ = deployed
        with pytest.raises(ValueError):
            DeploymentExperiment(world, control_domain="short.com")


class TestOriginDeploymentActive:
    """§5.3 / Figure 7b."""

    @pytest.fixture(scope="class")
    def result(self, deployed):
        _, experiment = deployed
        experiment.enable_origin_frames()
        active = ActiveMeasurement(experiment, origin_frames=True)
        measured = active.run()
        experiment.disable_origin_frames()
        return measured

    def test_experiment_mostly_coalesces(self, result):
        # Paper: ~64% of experiment visits trigger no new connections.
        assert result.fraction_with(Group.EXPERIMENT, 0) >= 0.4

    def test_control_mostly_connects(self, result):
        # Paper: ~84% of control visits make exactly one connection;
        # only churned visits make zero.
        assert result.fraction_with(Group.CONTROL, 0) <= 0.3
        control = result.new_connections[Group.CONTROL]
        assert sum(count <= 2 for count in control) / len(control) >= 0.6

    def test_experiment_beats_control(self, result):
        assert result.fraction_with(Group.EXPERIMENT, 0) > \
            result.fraction_with(Group.CONTROL, 0)

    def test_connection_counts_bounded(self, result):
        # Paper: no ORIGIN-phase visit made more than 4 new connections.
        assert result.max_connections(Group.EXPERIMENT) <= 4

    def test_cdf_is_monotone(self, result):
        cdf = result.cdf(Group.CONTROL)
        values = [fraction for _, fraction in cdf]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0)


class TestIpDeploymentActive:
    """§5.2 / Figure 7a."""

    @pytest.fixture(scope="class")
    def result(self, deployed):
        _, experiment = deployed
        experiment.deploy_ip_coalescing()
        active = ActiveMeasurement(
            experiment, origin_frames=False, seed=77
        )
        measured = active.run()
        experiment.undo_ip_coalescing()
        return measured

    def test_experiment_coalesces_via_shared_ip(self, result):
        # Paper: ~70% of experiment visits make no new connections.
        assert result.fraction_with(Group.EXPERIMENT, 0) >= 0.4

    def test_control_cannot_coalesce(self, result):
        # Certificates without the third party block IP coalescing too.
        assert result.fraction_with(Group.CONTROL, 0) <= 0.3

    def test_control_connection_cap(self, result):
        # Paper: no control visit made more than 7 new connections.
        assert result.max_connections(Group.CONTROL) <= 7


class TestPassivePipeline:
    @pytest.fixture(scope="class")
    def traffic(self, deployed):
        _, experiment = deployed
        experiment.enable_origin_frames()
        pipeline = PassivePipeline(experiment, sampling_rate=1.0)
        pipeline.attach()
        active = ActiveMeasurement(experiment, origin_frames=True,
                                   seed=5, churn_rate=0.0)
        active.run()
        pipeline.detach()
        experiment.disable_origin_frames()
        return pipeline

    def test_records_have_flag_bits(self, traffic):
        third = traffic.third_party_records()
        assert third
        flagged = [r for r in third if r.sni_host_mismatch]
        direct = [r for r in third if not r.sni_host_mismatch]
        assert flagged, "no coalesced third-party requests observed"
        # Coalesced requests ride a site connection: SNI is the site.
        for record in flagged:
            assert record.sni != DEFAULT_THIRD_PARTY
        for record in direct:
            assert record.sni == DEFAULT_THIRD_PARTY

    def test_only_experiment_group_coalesces(self, traffic):
        assert traffic.coalesced_connection_count(Group.EXPERIMENT) > 0
        assert traffic.coalesced_connection_count(Group.CONTROL) == 0

    def test_tls_connection_reduction(self, traffic):
        # Paper §5.3: ~50% fewer new third-party TLS connections.
        assert traffic.tls_connection_reduction() >= 0.3

    def test_referer_attribution(self, traffic):
        groups = {r.group for r in traffic.third_party_records()}
        assert Group.EXPERIMENT in groups
        assert Group.CONTROL in groups

    def test_sampling_rate_reduces_volume(self, deployed):
        _, experiment = deployed
        dense = PassivePipeline(experiment, sampling_rate=1.0, seed=1)
        sparse = PassivePipeline(experiment, sampling_rate=0.05, seed=1)
        experiment.enable_origin_frames()
        dense.attach()
        active = ActiveMeasurement(experiment, origin_frames=True,
                                   seed=9)
        active.run(limit=6)
        dense.detach()
        sparse.attach()
        active2 = ActiveMeasurement(experiment, origin_frames=True,
                                    seed=9)
        active2.run(limit=6)
        sparse.detach()
        experiment.disable_origin_frames()
        assert len(sparse.records) < len(dense.records)

    def test_invalid_sampling_rate(self, deployed):
        _, experiment = deployed
        with pytest.raises(ValueError):
            PassivePipeline(experiment, sampling_rate=0.0)


class TestLongitudinal:
    def test_reduction_only_inside_deployment_window(self, deployed):
        """Figure 8: the experiment group's third-party connection rate
        halves during the treatment window and matches control outside."""
        _, experiment = deployed
        pipeline = PassivePipeline(experiment, sampling_rate=1.0, seed=3)
        pipeline.attach()
        study = LongitudinalStudy(experiment, pipeline)
        rates = study.run(total_days=6, deploy_on=2, deploy_off=4)
        pipeline.detach()
        assert len(rates.days) == 6
        during = rates.reduction_during_deployment()
        outside = rates.reduction_outside_deployment()
        assert during >= 0.3          # paper: ~50%
        assert abs(outside) < 0.35    # no effect before/after
        assert during > outside


class TestPinnedAtSixtySites:
    """Exact §5 values on the 60-site deployment world.  The paper-
    suite bands above are loose; these pin every number a deployment
    refactor must not move: Figure 6's size deltas, Figure 7b's
    fractions and Figure 8's daily series."""

    @staticmethod
    def deployed():
        world = build_world(deployment_world_config(site_count=60))
        experiment = DeploymentExperiment(world)
        experiment.reissue_certificates()
        return experiment

    def test_figure6_size_deltas(self):
        deltas = self.deployed().certificate_size_deltas()
        assert deltas == {
            Group.EXPERIMENT: [22, 22],
            Group.CONTROL: [22, 22, 22],
        }

    def test_figure7b_fractions(self):
        experiment = self.deployed()
        experiment.enable_origin_frames()
        result = ActiveMeasurement(experiment, origin_frames=True).run()
        experiment.disable_origin_frames()
        assert [result.fraction_with(Group.EXPERIMENT, count)
                for count in range(3)] == [1.0, 0.0, 0.0]
        assert [result.fraction_with(Group.CONTROL, count)
                for count in range(3)] == [1 / 3, 2 / 3, 0.0]

    def test_figure8_daily_series(self):
        experiment = self.deployed()
        pipeline = PassivePipeline(experiment, sampling_rate=1.0, seed=3)
        pipeline.attach()
        rates = LongitudinalStudy(experiment, pipeline).run(
            total_days=6, deploy_on=2, deploy_off=4)
        pipeline.detach()
        assert rates.days == [0, 1, 2, 3, 4, 5]
        assert rates.experiment == [1, 1, 0, 0, 1, 1]
        assert rates.control == [4, 3, 3, 4, 4, 3]
