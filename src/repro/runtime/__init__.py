"""The unified run pipeline behind every simulation command.

``repro.runtime`` composes a run from three declarative parts --

* a **workload** (:class:`CrawlWorkload` / :class:`TrafficWorkload` /
  :class:`ChaosWorkload`): the experiment definition and how to
  execute it,
* :class:`InstrumentationOptions`: what to record (trace, metrics,
  audit, ledger, SLO gates),
* ordered **sinks** (:mod:`repro.runtime.sinks`): where artifacts and
  diagnostics go, each file artifact opened before the run
  (:mod:`repro.runtime.artifacts`) and published by its sink

-- and :class:`RunPipeline` runs them on ``jobs`` workers: the
workload's one ``execute``, which collects only when the options
watch the run and reports each merged shard through one callback
(the ``shards: k/n`` line, or the live heartbeat), then its sinks.
The CLI modules under :mod:`repro.cli` only parse arguments and
render output;
scenario files (:mod:`repro.runtime.scenario`) drive the same pipeline
declaratively via ``repro run``.
"""

from repro.runtime.console import diag, shard_progress
from repro.runtime.instrument import (
    counter_total,
    finish_ledger,
    ledger_watch,
)
from repro.runtime.options import InstrumentationOptions
from repro.runtime.pipeline import RunPipeline
from repro.runtime.scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    parse_scenario,
)
from repro.runtime.workloads import (
    ChaosWorkload,
    CrawlWorkload,
    RunOutcome,
    TrafficWorkload,
)

__all__ = [
    "ChaosWorkload",
    "CrawlWorkload",
    "InstrumentationOptions",
    "RunOutcome",
    "RunPipeline",
    "Scenario",
    "ScenarioError",
    "TrafficWorkload",
    "counter_total",
    "diag",
    "finish_ledger",
    "ledger_watch",
    "load_scenario",
    "parse_scenario",
    "shard_progress",
]
