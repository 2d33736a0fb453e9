"""The unified run pipeline.

Every simulation command is the same five stages:

1. **configure** -- the workload fixes the experiment definition
   (dataset/scenario config + shard layout) and its fingerprint;
2. **gates** -- SLO rules load and every artifact the run names is
   opened (:mod:`repro.runtime.artifacts`) up front, so a malformed
   gate file or an unwritable path aborts before any simulation
   (exit 2);
3. **execute** -- the workload runs on ``jobs`` workers, collecting
   what the options ask for (a watched run also bypasses the crawl
   cache);
4. **sink** -- the ordered sink list persists artifacts and prints
   diagnostics;
5. **render** -- the command's stdout tables run as the final (or,
   for traffic, mid-order) sink.

The pipeline itself is workload-agnostic; byte-identity across
``--jobs`` comes from the workloads' order-preserving shard merges,
and output-identity with the legacy CLI comes from the workloads'
sink ordering.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.runtime.artifacts import RunArtifacts
from repro.runtime.options import InstrumentationOptions
from repro.runtime.workloads import RunOutcome


class RunPipeline:
    """Compose workload + instrumentation (+ render) on ``jobs``
    workers."""

    def __init__(self, workload,
                 instrumentation: Optional[InstrumentationOptions]
                 = None,
                 jobs: int = 1,
                 render: Optional[Callable[[RunOutcome], None]]
                 = None) -> None:
        self.workload = workload
        self.instrumentation = (instrumentation
                                or InstrumentationOptions())
        self.jobs = jobs
        self.render = render

    def run(self) -> RunOutcome:
        options = self.instrumentation
        rules = options.load_rules()
        artifacts = RunArtifacts(options, self.workload.out_label,
                                 self.workload.out_path)
        try:
            outcome = self.workload.execute(self.jobs, options, rules,
                                            artifacts)
            for sink in self.workload.sinks(options, rules,
                                            render=self.render,
                                            artifacts=artifacts):
                sink(outcome)
        except BaseException:
            artifacts.discard()
            raise
        return outcome
