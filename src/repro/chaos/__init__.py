"""repro.chaos -- deterministic fault injection and blast-radius
analysis.

The paper evaluates connection coalescing's best case; this package
probes its worst: when a connection carrying many coalesced hostnames
dies (§6.7 saw a middlebox do exactly that in the wild), how much
goes down with it, per coalescing policy?

Layers:

* :mod:`repro.chaos.schedule` -- the declarative ``[[fault]]`` TOML
  schedule and its validation;
* :mod:`repro.chaos.inject` -- arms a schedule against one world on
  the simulated clock (taps and wrappers; it reads the servers' live
  connections and subscribes to none), with per-fault seeded RNGs and
  blast attribution;
* :mod:`repro.chaos.report` -- per-fault tallies and the
  shard-mergeable :class:`ChaosReport`;
* :mod:`repro.chaos.run` -- :func:`run_chaos`, the one crawl driver
  (:func:`repro.dataset.shard.crawl_shards`, whose ``crawl_shard``
  arms the injector) with the tallies folded into a report, and the
  ``--compare-policies`` sweep over it.
"""

from repro.browser.retry import DEFAULT_RETRY_POLICY
from repro.chaos.inject import FaultInjector
from repro.chaos.report import ChaosReport, FaultTally
from repro.chaos.run import COMPARE_POLICIES, compare_policies, run_chaos
from repro.chaos.schedule import (
    EMPTY_SCHEDULE,
    KINDS,
    ChaosError,
    FaultSchedule,
    FaultSpec,
    load_fault_schedule,
    parse_fault_schedule,
)

__all__ = [
    "COMPARE_POLICIES",
    "DEFAULT_RETRY_POLICY",
    "EMPTY_SCHEDULE",
    "KINDS",
    "ChaosError",
    "ChaosReport",
    "FaultInjector",
    "FaultSchedule",
    "FaultSpec",
    "FaultTally",
    "compare_policies",
    "load_fault_schedule",
    "parse_fault_schedule",
    "run_chaos",
]
