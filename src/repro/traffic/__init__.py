"""``repro.traffic`` -- population-scale traffic simulation.

The crawl (:mod:`repro.dataset`) measures one browser loading one page
at a time; this package measures the *server side of the paper's
story*: what a population of concurrent users -- split into
browser-policy cohorts (§2.3's Chromium vs Firefox mix), revisiting
sites with warm caches and TLS tickets -- does to CDN edge load, and
how much of that load connection coalescing removes.

* :mod:`~repro.traffic.scenario` -- scenario configs, cohort presets,
  deterministic user sharding;
* :mod:`~repro.traffic.population` -- seeded arrival process and
  cohort assignment;
* :mod:`~repro.traffic.edge` -- edge load monitor (connections,
  handshakes, resumption, coalesced requests, overload GOAWAYs) and
  capacity provisioning;
* :mod:`~repro.traffic.aggregate` -- streaming, shard-mergeable
  aggregation with canonical JSONL export;
* :mod:`~repro.traffic.simulate` -- the sharded runner and the
  baseline / ORIGIN / ideal-SAN what-if sweep.
"""

from repro.traffic.aggregate import (  # noqa: F401
    CohortTally,
    LoadCounters,
    TrafficAggregate,
)
from repro.traffic.edge import (  # noqa: F401
    EdgeLoadMonitor,
    apply_edge_capacity,
)
from repro.traffic.population import (  # noqa: F401
    UserProfile,
    Visit,
    build_population,
)
from repro.traffic.scenario import (  # noqa: F401
    BASELINE_COHORTS,
    CohortSpec,
    IDEAL_SAN_COHORTS,
    ORIGIN_COHORTS,
    ScenarioConfig,
    UserShard,
    WHAT_IF_POLICIES,
    plan_user_shards,
    scenario_for_policy,
)
from repro.traffic.simulate import (  # noqa: F401
    plan_replica,
    run_scenario,
    run_what_if,
    simulate_shard,
    what_if_rows,
)

__all__ = [
    "BASELINE_COHORTS",
    "CohortSpec",
    "CohortTally",
    "EdgeLoadMonitor",
    "IDEAL_SAN_COHORTS",
    "LoadCounters",
    "ORIGIN_COHORTS",
    "ScenarioConfig",
    "TrafficAggregate",
    "UserProfile",
    "UserShard",
    "Visit",
    "WHAT_IF_POLICIES",
    "apply_edge_capacity",
    "build_population",
    "plan_replica",
    "plan_user_shards",
    "run_scenario",
    "run_what_if",
    "scenario_for_policy",
    "simulate_shard",
    "what_if_rows",
]
