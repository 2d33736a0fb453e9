"""Declarative fault schedules (``faults.toml``).

A fault schedule is a list of ``[[fault]]`` tables in the repo-wide
TOML subset (:mod:`repro.obs.tomlsubset` -- the same parser the SLO
and scenario files use), each describing one seeded fault::

    [[fault]]
    name = "edge-outage"          # optional, default "<kind>-<index>"
    kind = "edge_crash"           # required, see KINDS
    at = 4000.0                   # required: fire time, simulated ms
    duration = 1500.0             # window length; 0 = rest of the run
    target = "edge-*"             # fnmatch glob; "" matches everything
    rate = 1.0                    # per-event probability for sampled
                                  # kinds (packet loss, tls_fail, ...)
    magnitude_ms = 0.0            # kind-specific size (latency spike
                                  # height, DNS delay, ...)
    count = 0                     # cap on effect applications; 0 = off
    seed = 0                      # decorrelates this fault's RNG

Every fault fires on the simulated clock from a generator derived
from (run seed, chaos domain, shard, fault index), so a schedule is
byte-identical across ``--jobs`` and stable when unrelated faults are
added or removed.

``target`` semantics per kind:

========================  ============================================
kind                      target matches
========================  ============================================
``latency_spike``         a region name (``cdn-edge``, ``tail-hosting``)
``packet_loss``           server host name of the connection
``packet_corrupt``        server host name of the connection
``middlebox_teardown``    client host name (mirrors §6.7 protected set)
``dns_servfail``          queried hostname
``dns_timeout``           queried hostname
``dns_stale``             queried hostname
``tls_fail``              server host name of the connection
``cert_rotation``         server host name
``cert_expiry``           server host name
``edge_crash``            server host name
``goaway_storm``          server host name
``quic_blackhole``        server host name
========================  ============================================
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

from repro.obs.tomlsubset import parse_toml_subset


class ChaosError(ValueError):
    """The fault schedule could not be parsed or validated."""


#: Every fault kind the injector knows how to arm.
KINDS = (
    "latency_spike",
    "packet_loss",
    "packet_corrupt",
    "middlebox_teardown",
    "dns_servfail",
    "dns_timeout",
    "dns_stale",
    "tls_fail",
    "cert_rotation",
    "cert_expiry",
    "edge_crash",
    "goaway_storm",
    "quic_blackhole",
)

#: Kinds whose whole effect happens once at ``at`` (no window).
ONE_SHOT_KINDS = {"cert_rotation", "cert_expiry", "goaway_storm"}


@dataclass(frozen=True)
class FaultSpec:
    """One validated fault from a schedule."""

    name: str
    kind: str
    at: float
    duration: float = 0.0
    target: str = ""
    rate: float = 1.0
    magnitude_ms: float = 0.0
    count: int = 0
    seed: int = 0

    @property
    def until(self) -> float:
        """End of the active window; ``inf`` for open-ended faults."""
        if self.kind in ONE_SHOT_KINDS:
            return self.at
        if self.duration <= 0:
            return float("inf")
        return self.at + self.duration

    def active_at(self, now: float) -> bool:
        return self.at <= now < self.until

    def to_doc(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "at": self.at,
            "duration": self.duration,
            "target": self.target,
            "rate": self.rate,
            "magnitude_ms": self.magnitude_ms,
            "count": self.count,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, validated set of faults plus where it came from."""

    faults: Tuple[FaultSpec, ...] = ()
    source: str = "<none>"

    @property
    def empty(self) -> bool:
        return not self.faults

    def to_doc(self) -> Dict[str, object]:
        return {"faults": [fault.to_doc() for fault in self.faults]}


#: The empty schedule: arming it must install nothing (the
#: non-perturbation invariant the CI gate enforces).
EMPTY_SCHEDULE = FaultSchedule()

_FAULT_KEYS = {
    "name", "kind", "at", "duration", "target", "rate",
    "magnitude_ms", "count", "seed",
}
_STRING_KEYS = {"name", "kind", "target"}


def _finish_fault(table: Dict[str, object], where: str,
                  index: int) -> FaultSpec:
    unknown = set(table) - _FAULT_KEYS
    if unknown:
        raise ChaosError(
            f"{where}: unknown key(s) {sorted(unknown)}; "
            f"expected {sorted(_FAULT_KEYS)}"
        )
    for key in _STRING_KEYS & set(table):
        if not isinstance(table[key], str):
            raise ChaosError(f"{where}: {key!r} must be a string")
    kind = table.get("kind")
    if kind is None:
        raise ChaosError(f"{where}: 'kind' is required")
    if kind not in KINDS:
        raise ChaosError(
            f"{where}: unknown fault kind {kind!r}; "
            f"expected one of {list(KINDS)}"
        )
    at = table.get("at")
    if at is None:
        raise ChaosError(f"{where}: 'at' (simulated ms) is required")
    if isinstance(at, bool) or not isinstance(at, (int, float)):
        raise ChaosError(f"{where}: 'at' must be a number")
    at = float(at)
    if at < 0:
        raise ChaosError(f"{where}: 'at' must be >= 0, got {at:g}")
    duration = float(table.get("duration", 0.0))
    if duration < 0:
        raise ChaosError(
            f"{where}: 'duration' must be >= 0, got {duration:g}"
        )
    rate = float(table.get("rate", 1.0))
    if not 0.0 < rate <= 1.0:
        raise ChaosError(
            f"{where}: 'rate' must be in (0, 1], got {rate:g}"
        )
    magnitude = float(table.get("magnitude_ms", 0.0))
    if magnitude < 0:
        raise ChaosError(
            f"{where}: 'magnitude_ms' must be >= 0, got {magnitude:g}"
        )
    count = table.get("count", 0)
    if isinstance(count, bool) or not isinstance(count, int) or count < 0:
        raise ChaosError(
            f"{where}: 'count' must be a non-negative integer"
        )
    seed = table.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ChaosError(f"{where}: 'seed' must be a non-negative integer")
    name = str(table.get("name") or f"{kind}-{index}")
    return FaultSpec(
        name=name,
        kind=str(kind),
        at=at,
        duration=duration,
        target=str(table.get("target", "")),
        rate=rate,
        magnitude_ms=magnitude,
        count=count,
        seed=seed,
    )


def parse_fault_schedule(text: str,
                         source: str = "<faults>") -> FaultSchedule:
    """Parse a fault schedule (see the module docstring for the
    accepted subset)."""
    tables = parse_toml_subset(text, source=source, error=ChaosError)
    for table in tables:
        if table.name != "fault" or not table.array:
            head = f"[[{table.name}]]" if table.array \
                else f"[{table.name}]"
            raise ChaosError(
                f"{table.where}: only [[fault]] tables are supported, "
                f"got {head!r}"
            )
    faults = [
        _finish_fault(table.items, table.where, index)
        for index, table in enumerate(tables)
    ]
    names = [fault.name for fault in faults]
    duplicates = {name for name in names if names.count(name) > 1}
    if duplicates:
        raise ChaosError(
            f"{source}: duplicate fault name(s) {sorted(duplicates)}"
        )
    return FaultSchedule(faults=tuple(faults), source=source)


def load_fault_schedule(path) -> FaultSchedule:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ChaosError(f"cannot read {path}: {error}") from error
    return parse_fault_schedule(text, source=str(path))
