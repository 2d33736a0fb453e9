"""Latency and bandwidth model.

Propagation delay is defined between *regions* (e.g. ``"us-east"``,
``"eu-west"``, ``"client-isp"``).  A :class:`LinkSpec` gives the
round-trip time and optional jitter for a region pair; one-way delay is
half the RTT.  Serialization delay for a payload is ``bytes /
bandwidth``; it models the tail of large responses such as oversized
certificates (paper §6.5).

The model is symmetric: the (a, b) spec also covers (b, a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

#: Default RTT used when a region pair has no explicit spec, in ms.
#: 30ms approximates a same-continent client-to-CDN-edge path.
DEFAULT_RTT_MS = 30.0

#: Default bandwidth in bytes per millisecond (== kB/s * 1e-3).
#: 2500 bytes/ms == 20 Mbit/s, a typical broadband profile.
DEFAULT_BANDWIDTH_BPMS = 2500.0


@dataclass(frozen=True)
class LinkSpec:
    """Propagation characteristics for a region pair."""

    rtt_ms: float
    jitter_ms: float = 0.0
    bandwidth_bpms: float = DEFAULT_BANDWIDTH_BPMS

    def __post_init__(self) -> None:
        if self.rtt_ms < 0:
            raise ValueError(f"negative RTT: {self.rtt_ms}")
        if self.jitter_ms < 0:
            raise ValueError(f"negative jitter: {self.jitter_ms}")
        if self.bandwidth_bpms <= 0:
            raise ValueError(f"non-positive bandwidth: {self.bandwidth_bpms}")


class LatencyModel:
    """RTT and serialization delay lookups between named regions."""

    def __init__(
        self,
        default: Optional[LinkSpec] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._default = default or LinkSpec(rtt_ms=DEFAULT_RTT_MS)
        self._links: Dict[Tuple[str, str], LinkSpec] = {}
        self._rng = rng
        #: region -> [busy_until_ms, bandwidth_bpms] for regions whose
        #: inbound bandwidth is shared across all of their connections
        #: (e.g. a client's access link).
        self._shared_ingress: Dict[str, list] = {}

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def set_link(self, region_a: str, region_b: str, spec: LinkSpec) -> None:
        """Register the spec for a region pair (order-insensitive)."""
        self._links[self._key(region_a, region_b)] = spec

    def link(self, region_a: str, region_b: str) -> LinkSpec:
        """Return the spec for a pair, falling back to the default."""
        return self._links.get(self._key(region_a, region_b), self._default)

    def rtt(self, region_a: str, region_b: str) -> float:
        """Round-trip time in ms, with jitter applied if an RNG was given.

        Jitter is drawn uniformly from ``[-jitter, +jitter]`` and clamped
        so the RTT never goes below a quarter of its base value.
        """
        spec = self.link(region_a, region_b)
        rtt = spec.rtt_ms
        if self._rng is not None and spec.jitter_ms > 0:
            rtt += float(self._rng.uniform(-spec.jitter_ms, spec.jitter_ms))
            rtt = max(rtt, spec.rtt_ms / 4.0)
        return rtt

    def one_way(self, region_a: str, region_b: str) -> float:
        """One-way propagation delay in ms (half the RTT)."""
        return self.rtt(region_a, region_b) / 2.0

    def serialization_delay(
        self, region_a: str, region_b: str, nbytes: int
    ) -> float:
        """Time in ms for ``nbytes`` to drain at the link bandwidth."""
        if nbytes < 0:
            raise ValueError(f"negative payload size: {nbytes}")
        spec = self.link(region_a, region_b)
        return nbytes / spec.bandwidth_bpms

    def transfer_delay(
        self, region_a: str, region_b: str, nbytes: int
    ) -> float:
        """One-way delay plus serialization for a payload of ``nbytes``."""
        return self.one_way(region_a, region_b) + self.serialization_delay(
            region_a, region_b, nbytes
        )

    # -- shared ingress bottleneck -------------------------------------------

    def enable_shared_ingress(
        self, region: str, bandwidth_bpms: float
    ) -> None:
        """Make ``region``'s inbound bandwidth a single shared queue.

        Without this, every connection gets the link bandwidth to
        itself; with it, parallel downloads into the region contend --
        which is what makes sharding's extra connections fail to buy
        extra throughput on a real access link.
        """
        if bandwidth_bpms <= 0:
            raise ValueError(f"bad bandwidth {bandwidth_bpms}")
        self._shared_ingress[region] = [0.0, bandwidth_bpms]

    def ingress_completion(
        self, region: str, now: float, nbytes: int
    ) -> Optional[float]:
        """Time the last byte clears ``region``'s shared ingress queue,
        or ``None`` when the region has a dedicated (unshared) link."""
        state = self._shared_ingress.get(region)
        if state is None:
            return None
        start = max(now, state[0])
        done = start + nbytes / state[1]
        state[0] = done
        return done
