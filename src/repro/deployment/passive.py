"""Server-side passive measurement pipeline (§5.2/§5.3).

A randomly sampled share of requests at the CDN is logged with:

* the connection's number at the server (its accept count) and the
  request's arrival order on it;
* the ``SNI != Host`` flag bit -- "a reasonable signal of connection
  coalescing";
* the treatment label (experiment / control), derived from the
  (page-truncated) Referer;
* the timestamp, for the Figure 8 longitudinal series.

Connection-level counting deduplicates by connection id exactly as the
paper describes ("we look for arrivals >= 2, making sure to count the
corresponding unique identifier only once").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from repro.deployment.experiment import DeploymentExperiment, Group
from repro.h2.server import H2Server


@dataclass(frozen=True)
class LogRecord:
    """One sampled request at the CDN edge."""

    timestamp: float
    connection_id: int
    sni: str
    authority: str
    arrival_index: int
    referer: str
    group: Optional[Group]
    #: The coalescing signal: the request's Host differs from the SNI
    #: the connection was established with.
    sni_host_mismatch: bool
    user_agent: str = ""


class PassivePipeline:
    """Attachable logging pipeline over a CDN server."""

    def __init__(
        self,
        experiment: DeploymentExperiment,
        sampling_rate: float = 0.01,
        seed: int = 97,
        firefox_only: bool = False,
    ) -> None:
        if not 0 < sampling_rate <= 1:
            raise ValueError(f"bad sampling rate {sampling_rate}")
        self.experiment = experiment
        self.sampling_rate = sampling_rate
        self.firefox_only = firefox_only
        self.rng = np.random.default_rng(seed)
        self.records: List[LogRecord] = []
        self._attached_server: Optional[H2Server] = None

    # -- attachment -----------------------------------------------------------

    def attach(self) -> None:
        server = self.experiment.cdn_server
        server.request_observers.append(self._observe)
        self._attached_server = server

    def detach(self) -> None:
        server = self._attached_server
        if server is not None:
            server.request_observers.remove(self._observe)
            self._attached_server = None

    # -- observation --------------------------------------------------------

    def _observe(self, connection, authority, arrival_index, headers
                 ) -> None:
        if self.rng.random() >= self.sampling_rate:
            return
        header_map = dict(headers)
        user_agent = header_map.get("user-agent", "")
        if self.firefox_only and "firefox" not in user_agent.lower():
            return
        referer = header_map.get("referer", "")
        self.records.append(
            LogRecord(
                timestamp=self.experiment.world.network.loop.now(),
                connection_id=connection.conn_id,
                sni=connection.sni,
                authority=authority,
                arrival_index=arrival_index,
                referer=referer,
                group=self.experiment.group_of_domain(referer),
                sni_host_mismatch=(connection.sni != authority),
                user_agent=user_agent,
            )
        )

    # -- analysis ---------------------------------------------------------------

    def third_party_records(self) -> List[LogRecord]:
        return [
            record for record in self.records
            if record.authority == self.experiment.third_party
        ]

    def coalesced_connection_count(self, group: Group) -> int:
        """Connections on which a third-party request rode a
        different-SNI connection (counted once per connection id)."""
        seen: Set[int] = set()
        for record in self.third_party_records():
            if record.group is group and record.sni_host_mismatch \
                    and record.arrival_index >= 2:
                seen.add(record.connection_id)
        return len(seen)

    def direct_connection_count(self, group: Group) -> int:
        """New TLS connections made *to* the third party itself."""
        seen: Set[int] = set()
        for record in self.third_party_records():
            if record.group is group and not record.sni_host_mismatch:
                seen.add(record.connection_id)
        return len(seen)

    def tls_connection_reduction(self) -> float:
        """Relative reduction in new third-party TLS connections,
        experiment vs control -- §5.2 reports 56%, §5.3 ~50%."""
        control = self.direct_connection_count(Group.CONTROL)
        experiment = self.direct_connection_count(Group.EXPERIMENT)
        if control == 0:
            return 0.0
        return 1.0 - experiment / control

    def rates_in_window(
        self, start: float, end: float
    ) -> Dict[Group, int]:
        """Direct third-party connections per group in [start, end)."""
        out = {Group.EXPERIMENT: set(), Group.CONTROL: set()}
        for record in self.third_party_records():
            if not start <= record.timestamp < end:
                continue
            if record.group is None or record.sni_host_mismatch:
                continue
            out[record.group].add(record.connection_id)
        return {group: len(ids) for group, ids in out.items()}
