"""Per-request latency phase decomposition.

The run ledger wants every request broken into the phases the paper
argues about -- how long the browser waited on DNS, on the transport
handshake, on TLS, on the first response byte, and on the full page --
keyed by policy x protocol x cohort so coalescing's effect on each
phase is visible per population slice.

A :class:`PhaseRecorder` is a thin, label-caching front for ``phase.*``
histograms in a shared :class:`~repro.telemetry.metrics.MetricsRegistry`.
Hot paths reach their recorder through the telemetry handle
(:meth:`repro.telemetry.Telemetry.for_profile` makes one per browser
profile) and guard on ``phases.enabled``; an un-ledgered run holds
:data:`NULL_PHASES`, a bare flag, and pays a single attribute read.
Because the histograms live in the ordinary metrics registry they
merge across shards through the registry's ``absorb``, keeping
records byte-identical across ``--jobs``.

This module is import-dependency-free on purpose: transport, browser,
and dnssim layers all hold recorders without pulling the ledger in.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.metrics import Histogram, MetricsRegistry

#: The canonical phase order (also the report's row order).
PHASES: Tuple[str, ...] = ("dns", "connect", "tls", "ttfb", "page")

#: Label value for dimensions that do not apply (e.g. protocol of a
#: DNS lookup, cohort of a single-policy crawl).
NOT_APPLICABLE = "-"


class NullPhases:
    """The disabled recorder: ``enabled`` is False, nothing more."""

    __slots__ = ()
    enabled = False


#: The shared disabled instance.
NULL_PHASES = NullPhases()


class PhaseRecorder:
    """Observe phase latencies into ``phase.<name>`` histograms.

    One recorder carries one (policy, cohort) identity -- the crawl
    makes one per crawler, the traffic simulation one per user -- and
    stamps it on every series it touches; recorders with the same
    identity over the same registry share the underlying histograms.
    """

    __slots__ = ("registry", "policy", "cohort", "_cache")
    enabled = True

    def __init__(self, registry: "MetricsRegistry",
                 policy: str = NOT_APPLICABLE,
                 cohort: str = NOT_APPLICABLE) -> None:
        self.registry = registry
        self.policy = policy
        self.cohort = cohort
        self._cache: Dict[Tuple[str, str], "Histogram"] = {}

    def observe(self, phase: str, value_ms: float,
                protocol: str = NOT_APPLICABLE) -> None:
        key = (phase, protocol)
        histogram = self._cache.get(key)
        if histogram is None:
            histogram = self.registry.histogram(
                f"phase.{phase}",
                policy=self.policy,
                protocol=protocol,
                cohort=self.cohort,
            )
            self._cache[key] = histogram
        histogram.observe(value_ms)


def observe_handshake(phases, session) -> None:
    """Record the connect/tls phases of a now-ready session.

    A client session whose telemetry records phases registers this
    as its first ready callback at construction (so it runs before
    the pool's own ready callbacks and never perturbs them).  QUIC
    sessions report ``connect`` as 0 and the combined 1-RTT handshake
    as ``tls`` -- the same split the HAR timings use.
    """
    started = session.connect_started_at
    tcp_at = session.tcp_connected_at
    ready_at = session.connected_at
    if started is None or tcp_at is None or ready_at is None:
        return
    protocol = session.negotiated_protocol or NOT_APPLICABLE
    phases.observe("connect", tcp_at - started, protocol=protocol)
    phases.observe("tls", ready_at - tcp_at, protocol=protocol)
