"""The §5 production validation, simulated end to end.

A deployment CDN (the Cloudflare-analogue provider in the synthetic
world) hosts a heavily used third-party domain.  The experiment:

1. select a sample of CDN-hosted sites that request the third party
   (§5.1), split into experiment and control groups;
2. reissue every sample certificate -- experiment certs gain the third
   party's name, control certs gain an equal-length unused name
   (Figure 6) -- and write the same name into the per-SNI origin set
   (:func:`deploy_origin`, which also deploys the traffic what-if's
   fleet-wide upper bound, :func:`fleet_origin_plan`).  A plan is
   names -- ``(hostname, snis, names)`` rows -- resolved in the world
   it is deployed in, so the fleet plan is made once, with no world,
   and deploys in every traffic shard's;
3. deploy **IP coalescing** (§5.2: one dedicated address for sample
   and third-party domains) or switch on **ORIGIN frames** (§5.3);
4. measure passively (sampled server logs with the SNI != Host flag
   bit, keyed by the server's connection numbers; Figure 8) and
   actively (page loads with the Firefox model; Figures 7a/7b, and
   Figure 8's daily traffic).

The §6.7 middlebox bug is modelled in
:mod:`repro.deployment.middlebox`.
"""

from repro.deployment.experiment import (
    DeploymentExperiment,
    Group,
    SampleSite,
    deploy_origin,
    fleet_origin_plan,
)
from repro.deployment.passive import LogRecord, PassivePipeline
from repro.deployment.active import ActiveMeasurement, ActiveResult
from repro.deployment.longitudinal import (
    LongitudinalStudy,
    DailyRates,
)
from repro.deployment.middlebox import BuggyMiddlebox

__all__ = [
    "DeploymentExperiment",
    "Group",
    "SampleSite",
    "LogRecord",
    "PassivePipeline",
    "ActiveMeasurement",
    "ActiveResult",
    "LongitudinalStudy",
    "DailyRates",
    "BuggyMiddlebox",
    "deploy_origin",
    "fleet_origin_plan",
]
