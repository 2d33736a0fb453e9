"""Longitudinal traffic study (Figure 8).

Simulates weeks of production traffic to the sample sites: every
simulated day, the Figure 7 visit loop (:class:`ActiveMeasurement`)
loads each site once; the passive pipeline logs sampled requests;
daily direct-TLS-connection rates to the third party are collected per
treatment group.  The ORIGIN (or IP) deployment is switched on for a
window in the middle, producing the paper's before/during/after
contrast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.deployment.active import ActiveMeasurement
from repro.deployment.experiment import DeploymentExperiment, Group
from repro.deployment.passive import PassivePipeline

#: One simulated day, in ms.
DAY_MS = 24.0 * 3600 * 1000


@dataclass
class DailyRates:
    """Direct third-party TLS connections per day, per group."""

    days: List[int] = field(default_factory=list)
    experiment: List[int] = field(default_factory=list)
    control: List[int] = field(default_factory=list)
    deployment_window: Optional[tuple] = None

    def in_window(self, day: int) -> bool:
        if self.deployment_window is None:
            return False
        start, end = self.deployment_window
        return start <= day < end

    def mean_rate(self, group: Group, days: List[int]) -> float:
        series = (
            self.experiment if group is Group.EXPERIMENT else self.control
        )
        values = [series[self.days.index(day)] for day in days
                  if day in self.days]
        return float(np.mean(values)) if values else 0.0

    def reduction_during_deployment(self) -> float:
        """Experiment-vs-control reduction inside the window (~50%)."""
        if self.deployment_window is None:
            return 0.0
        window_days = [day for day in self.days if self.in_window(day)]
        control = self.mean_rate(Group.CONTROL, window_days)
        experiment = self.mean_rate(Group.EXPERIMENT, window_days)
        if control == 0:
            return 0.0
        return 1.0 - experiment / control

    def reduction_outside_deployment(self) -> float:
        outside = [day for day in self.days if not self.in_window(day)]
        control = self.mean_rate(Group.CONTROL, outside)
        experiment = self.mean_rate(Group.EXPERIMENT, outside)
        if control == 0:
            return 0.0
        return 1.0 - experiment / control


class LongitudinalStudy:
    """Drives daily traffic and toggles the deployment mid-study; each
    day is one no-churn :class:`ActiveMeasurement` pass on one engine."""

    def __init__(
        self,
        experiment: DeploymentExperiment,
        pipeline: PassivePipeline,
        seed: int = 71,
    ) -> None:
        self.experiment = experiment
        self.pipeline = pipeline
        self.measurement = ActiveMeasurement(
            experiment, churn_rate=0.0, speculative_rate=0.0, seed=seed,
        )

    def _run_day(self) -> None:
        self.measurement.run()
        # Advance to the next day boundary.
        loop = self.experiment.world.network.loop
        day_index = int(loop.now() // DAY_MS)
        loop.run_until((day_index + 1) * DAY_MS)

    def run(
        self,
        total_days: int = 8,
        deploy_on: int = 2,
        deploy_off: int = 6,
        enable: Optional[Callable[[], None]] = None,
        disable: Optional[Callable[[], None]] = None,
    ) -> DailyRates:
        """Run the study; ORIGIN is live on days [deploy_on, deploy_off)."""
        enable = enable or self.experiment.enable_origin_frames
        disable = disable or self.experiment.disable_origin_frames
        loop = self.experiment.world.network.loop
        start_day = int(loop.now() // DAY_MS)
        rates = DailyRates(
            deployment_window=(start_day + deploy_on,
                               start_day + deploy_off)
        )
        for offset in range(total_days):
            day = start_day + offset
            if offset == deploy_on:
                enable()
            if offset == deploy_off:
                disable()
            day_start = loop.now()
            self._run_day()
            counts = self.pipeline.rates_in_window(day_start, loop.now())
            rates.days.append(day)
            rates.experiment.append(counts[Group.EXPERIMENT])
            rates.control.append(counts[Group.CONTROL])
        return rates
