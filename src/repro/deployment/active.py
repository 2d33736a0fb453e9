"""Client-side active measurement (§5.2/§5.3, Figures 7a/7b).

Loads every sample site with the Firefox browser model (the only
browser with client-side ORIGIN support) and counts the *new TLS
connections to the third-party domain* during each page load: 0 means
the request was fully coalesced.

Per-visit content churn is modelled: with a small probability a visit
does not request the third party at all (sites change between
measurement campaigns -- the §5.3 discussion attributes part of the
gap to exactly this churn).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.browser import BrowserContext, BrowserEngine, FirefoxPolicy
from repro.deployment.experiment import DeploymentExperiment, Group
from repro.web.har import HarArchive
from repro.web.page import WebPage

FIREFOX_91_UA = (
    "Mozilla/5.0 (X11; Linux x86_64; rv:91.0) Gecko/20100101 Firefox/91.0"
)
FIREFOX_96_UA = (
    "Mozilla/5.0 (X11; Linux x86_64; rv:96.0) Gecko/20100101 Firefox/96.0"
)


@dataclass
class ActiveResult:
    """Per-group distributions of new third-party connections and
    page-load times (the latter feeds Figure 9 bottom)."""

    new_connections: Dict[Group, List[int]] = field(
        default_factory=lambda: {Group.EXPERIMENT: [], Group.CONTROL: []}
    )
    page_load_times: Dict[Group, List[float]] = field(
        default_factory=lambda: {Group.EXPERIMENT: [], Group.CONTROL: []}
    )

    def median_plt(self, group: Group) -> float:
        values = self.page_load_times[group]
        return float(np.median(values)) if values else 0.0

    def plt_difference(self) -> float:
        """Fractional PLT difference, experiment vs control (positive =
        experiment faster).  The paper measured ~1% (§6.1)."""
        control = self.median_plt(Group.CONTROL)
        if control == 0:
            return 0.0
        return 1.0 - self.median_plt(Group.EXPERIMENT) / control

    def fraction_with(self, group: Group, count: int) -> float:
        values = self.new_connections[group]
        if not values:
            return 0.0
        return sum(1 for v in values if v == count) / len(values)

    def max_connections(self, group: Group) -> int:
        values = self.new_connections[group]
        return max(values) if values else 0

    def cdf(self, group: Group) -> List[Tuple[int, float]]:
        values = sorted(self.new_connections[group])
        if not values:
            return []
        out = []
        total = len(values)
        for count in range(values[-1] + 1):
            out.append(
                (count, sum(1 for v in values if v <= count) / total)
            )
        return out


class ActiveMeasurement:
    """Runs Figure 7's methodology against the deployed experiment."""

    def __init__(
        self,
        experiment: DeploymentExperiment,
        origin_frames: bool = True,
        churn_rate: float = 0.08,
        speculative_rate: float = 0.05,
        user_agent: str = FIREFOX_96_UA,
        seed: int = 53,
    ) -> None:
        self.experiment = experiment
        self.churn_rate = churn_rate
        self.rng = np.random.default_rng(seed)
        # The measurement client of §5: Firefox (the only browser with
        # client-side ORIGIN support) on the world's crawler host.
        world = experiment.world
        self.engine = BrowserEngine(BrowserContext(
            network=world.network,
            client_host=world.client_host,
            resolver=world.make_resolver(median_latency_ms=30.0),
            trust_store=world.trust_store,
            authorities=world.authorities,
            policy=FirefoxPolicy(origin_frames=origin_frames),
            rng=self.rng,
            speculative_rate=speculative_rate,
            asdb=world.asdb,
            user_agent=user_agent,
        ))

    def _visit_page(self, page: WebPage) -> WebPage:
        """Apply per-visit churn: maybe drop the third party."""
        if self.rng.random() >= self.churn_rate:
            return page
        third = self.experiment.third_party
        kept = [r for r in page.resources if r.hostname != third]
        dropped_paths = {
            r.path for r in page.resources if r.hostname == third
        }
        # Also drop resources whose parent disappeared.
        changed = True
        while changed:
            changed = False
            remaining = []
            for resource in kept:
                if resource.parent in dropped_paths:
                    dropped_paths.add(resource.path)
                    changed = True
                else:
                    remaining.append(resource)
            kept = remaining
        return WebPage(
            hostname=page.hostname,
            root_path=page.root_path,
            root_size_bytes=page.root_size_bytes,
            resources=kept,
            rank=page.rank,
        )

    def new_third_party_connections(self, archive: HarArchive) -> int:
        third = self.experiment.third_party
        return sum(
            1 for entry in archive.entries
            if entry.hostname == third
            and entry.timings.used_new_connection
        )

    def run(self, limit: Optional[int] = None) -> ActiveResult:
        result = ActiveResult()
        sample = self.experiment.sample[:limit] if limit else \
            self.experiment.sample
        for site in sample:
            self.engine.new_session()
            page = self._visit_page(site.hosted.record.page)
            archive = self.engine.load_blocking(page)
            result.new_connections[site.group].append(
                self.new_third_party_connections(archive)
            )
            result.page_load_times[site.group].append(
                archive.page.on_load
            )
        return result
