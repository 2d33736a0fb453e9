"""Deterministic user population and arrival process.

Each shard draws its population from one seeded generator in a fixed
order (users in id order; per user: cohort, visit count, then per
visit: arrival time and site), so the schedule is a pure function of
``(scenario, shard layout)``.  Visit arrivals are uniform over the
scenario window and site choice follows a truncated power law --
popular sites absorb most of the traffic, which is what makes edge
load interesting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.dataset.generator import WeightedDraw
from repro.traffic.scenario import CohortSpec, UserShard


@dataclass(frozen=True)
class UserProfile:
    user_id: int
    cohort: CohortSpec


@dataclass(frozen=True)
class Visit:
    """One scheduled page visit."""

    at_ms: float
    user_id: int
    site_index: int
    #: Per-user visit counter; 0 is the cold first visit, later ones
    #: arrive with the user's warm cache and TLS tickets.
    visit_seq: int


def _site_weights(site_count: int, alpha: float) -> np.ndarray:
    weights = np.arange(1, site_count + 1, dtype=np.float64) ** -alpha
    return weights / weights.sum()


def build_population(
    shard: UserShard,
) -> Tuple[Dict[int, UserProfile], List[Visit]]:
    """This shard's users and their time-ordered visit schedule."""
    scenario = shard.scenario
    rng = np.random.default_rng(shard.population_seed())
    draw_cohort = WeightedDraw(scenario.normalized_shares())
    weights = _site_weights(scenario.site_count, scenario.zipf_alpha)
    profiles: Dict[int, UserProfile] = {}
    schedule: List[Visit] = []
    for user_id in range(shard.lo, shard.hi):
        profiles[user_id] = UserProfile(
            user_id=user_id, cohort=scenario.cohorts[draw_cohort(rng)],
        )
        # At least one visit each; the Poisson tail models returning
        # users (whose revisits exercise resumption and warm caches).
        visit_count = 1 + int(rng.poisson(
            max(0.0, scenario.mean_visits_per_user - 1.0)
        ))
        at_ms = np.sort(rng.uniform(
            0.0, scenario.duration_ms, size=visit_count
        ))
        sites = rng.choice(
            scenario.site_count, size=visit_count, p=weights
        )
        for visit_seq in range(visit_count):
            schedule.append(Visit(
                at_ms=float(at_ms[visit_seq]),
                user_id=user_id,
                site_index=int(sites[visit_seq]),
                visit_seq=visit_seq,
            ))
    schedule.sort(key=lambda v: (v.at_ms, v.user_id, v.visit_seq))
    return profiles, schedule
