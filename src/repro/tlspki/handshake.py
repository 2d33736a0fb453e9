"""TLS handshake cost model.

Computes the time a handshake adds on top of an established TCP
connection, as a function of TLS version, link RTT, certificate chain
size, and session resumption.  Two paper-relevant effects live here:

* **Version RTT cost** (paper §6.6): TLS 1.2 needs 2 RTTs, TLS 1.3
  needs 1, resumed TLS 1.3 0-RTT needs none before data.
* **Large-certificate spill** (paper §6.5): a chain that exceeds the
  16KB TLS record size no longer fits the server's initial flight, so
  every additional initial-congestion-window of data adds an RTT.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from repro.tlspki.certificate import Certificate

#: Maximum TLS record payload (RFC 8446 §5.1).
TLS_RECORD_SIZE = 16 * 1024

#: Initial congestion window: 10 segments of ~1460B payload (RFC 6928).
INITIAL_CWND_BYTES = 10 * 1460

#: Fixed handshake overhead besides certificates: hellos, key shares,
#: finished messages -- roughly 1.5KB on the wire.
HANDSHAKE_OVERHEAD_BYTES = 1500

#: CPU cost per signature verification, in ms.  ~0.15ms approximates
#: RSA-2048 verify on commodity hardware; scaled by chain length it is
#: the "cryptographic computation overhead" of paper §4.2.
VERIFY_CPU_MS = 0.15


class TlsVersion(enum.Enum):
    """Supported versions with their full-handshake RTT counts."""

    TLS12 = "TLS 1.2"
    TLS13 = "TLS 1.3"

    @property
    def handshake_rtts(self) -> int:
        return 2 if self is TlsVersion.TLS12 else 1


@dataclass(frozen=True)
class HandshakeConfig:
    """Connection-level inputs to the handshake simulation."""

    version: TlsVersion = TlsVersion.TLS13
    rtt_ms: float = 30.0
    bandwidth_bpms: float = 2500.0
    resumed: bool = False
    sni_hostname: str = ""
    ech_enabled: bool = False

    def __post_init__(self) -> None:
        if self.rtt_ms < 0:
            raise ValueError(f"negative RTT: {self.rtt_ms}")
        if self.bandwidth_bpms <= 0:
            raise ValueError(f"bad bandwidth: {self.bandwidth_bpms}")


@dataclass(frozen=True)
class HandshakeResult:
    """Outcome of one simulated handshake."""

    duration_ms: float
    rtts_used: float
    chain_bytes: int
    records_needed: int
    extra_flights: int
    signature_checks: int
    cpu_ms: float
    sni_plaintext: str


def chain_bytes(chain: Sequence[Certificate]) -> int:
    """Wire size of the presented certificate chain."""
    return sum(certificate.size_bytes for certificate in chain)


def simulate_handshake(
    chain: Sequence[Certificate], config: HandshakeConfig
) -> HandshakeResult:
    """Simulate the TLS handshake for ``chain`` under ``config``.

    Resumed TLS 1.3 handshakes skip certificate transmission entirely
    (PSK resumption).  Otherwise the handshake costs its version's RTTs
    plus serialization of the chain, plus one extra RTT per additional
    initial-congestion-window the server's first flight spills into.
    """
    if config.resumed and config.version is TlsVersion.TLS13:
        return HandshakeResult(
            duration_ms=0.0,
            rtts_used=0.0,
            chain_bytes=0,
            records_needed=0,
            extra_flights=0,
            signature_checks=0,
            cpu_ms=0.0,
            sni_plaintext="" if config.ech_enabled else config.sni_hostname,
        )

    total_bytes = chain_bytes(chain) + HANDSHAKE_OVERHEAD_BYTES
    records = max(1, math.ceil(chain_bytes(chain) / TLS_RECORD_SIZE))
    flights = max(1, math.ceil(total_bytes / INITIAL_CWND_BYTES))
    extra_flights = flights - 1

    rtts = config.version.handshake_rtts + extra_flights
    serialization = total_bytes / config.bandwidth_bpms
    signature_checks = len(chain)
    cpu = signature_checks * VERIFY_CPU_MS

    return HandshakeResult(
        duration_ms=rtts * config.rtt_ms + serialization + cpu,
        rtts_used=float(rtts),
        chain_bytes=chain_bytes(chain),
        records_needed=records,
        extra_flights=extra_flights,
        signature_checks=signature_checks,
        cpu_ms=cpu,
        sni_plaintext="" if config.ech_enabled else config.sni_hostname,
    )
