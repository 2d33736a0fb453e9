"""The non-compliant HTTP/2 middlebox of §6.7.

A TLS-terminating network agent (antivirus / corporate proxy) sits on
path for some clients.  RFC 7540 §4.1 requires unknown frame types to
be ignored; the buggy agent instead tears the connection down when it
sees one -- which is exactly what an ORIGIN frame (type 0xC) looks
like to software written before RFC 8336.

The middlebox installs as a network tap and inspects server-to-client
bytes: it parses the simulated TLS records, reassembles the HTTP/2
frame stream inside APPDATA records, and checks every frame type
against its known set.
"""

from __future__ import annotations

from typing import Set

from repro.audit.reasons import ReasonCode
from repro.h2.frames import FRAME_HEADER_LEN, HEADER_STRUCT, KNOWN_TYPES
from repro.transport.framing import REC_APPDATA, consume_records
from repro.netsim.network import Host, Network
from repro.netsim.transport import Transport
from repro.telemetry import NULL_TELEMETRY, RegistryStats, Telemetry


class MiddleboxStats(RegistryStats):
    """Inspection counters."""

    _prefix = "middlebox."
    _counters = (
        "connections_inspected",
        "frames_inspected",
        "unknown_frames_seen",
        "connections_torn_down",
    )


class _ConnectionInspector:
    """Per-connection reassembly state for one inspected flow.  The
    flow's transport holds it as its outbound inspector; it keeps no
    reference back, so it dies with the transport."""

    def __init__(self, middlebox: "BuggyMiddlebox") -> None:
        self.middlebox = middlebox
        self._record_buffer = bytearray()
        self._frame_buffer = bytearray()
        self.dead = False

    def inspect(self, data: bytes) -> bool:
        """Returns False to abort the connection."""
        if self.dead:
            return False
        self._record_buffer += data
        for record_type, payload in consume_records(self._record_buffer):
            if record_type != REC_APPDATA:
                continue
            self._frame_buffer += payload
            if not self._scan_frames():
                self.dead = True
                return False
        return True

    def _scan_frames(self) -> bool:
        while len(self._frame_buffer) >= FRAME_HEADER_LEN:
            word = HEADER_STRUCT.unpack_from(self._frame_buffer)[0]
            end = FRAME_HEADER_LEN + (word >> 8)
            if len(self._frame_buffer) < end:
                return True  # wait for more bytes
            frame_type = word & 0xFF
            del self._frame_buffer[:end]
            self.middlebox.stats.frames_inspected += 1
            if frame_type not in self.middlebox.known_types:
                self.middlebox.stats.unknown_frames_seen += 1
                if self.middlebox.tear_down_on_unknown:
                    # The §6.7 bug: kill the TLS connection instead of
                    # ignoring the frame.
                    self.middlebox.stats.connections_torn_down += 1
                    audit = self.middlebox.audit
                    if audit.enabled:
                        audit.record(
                            "middlebox",
                            ReasonCode.MIDDLEBOX_TEARDOWN_UNKNOWN_FRAME,
                            frame_type=frame_type,
                        )
                    return False
        return True


class BuggyMiddlebox:
    """A network tap that polices HTTP/2 frames for selected clients.

    ``tear_down_on_unknown=True`` reproduces the §6.7 failure; setting
    it to False models the vendor's eventual fix (ignore and pass).
    """

    def __init__(
        self,
        network: Network,
        protected_clients: Set[str],
        tear_down_on_unknown: bool = True,
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> None:
        self.network = network
        self.protected_clients = set(protected_clients)
        self.tear_down_on_unknown = tear_down_on_unknown
        #: Types the agent recognizes: RFC 7540 only -- no ORIGIN.
        self.known_types = KNOWN_TYPES
        self.stats = MiddleboxStats()
        #: Records every teardown when ``telemetry`` audits.
        self.audit = telemetry.audit
        self._installed = False

    def install(self) -> None:
        if not self._installed:
            self.network.add_tap(self._tap)
            self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            self.network.remove_tap(self._tap)
            self._installed = False

    def fix(self) -> None:
        """Apply the vendor fix confirmed in September 2022 (§6.7)."""
        self.tear_down_on_unknown = False

    def _tap(
        self,
        client: Host,
        server_ip: str,
        port: int,
        client_end: Transport,
        server_end: Transport,
    ) -> None:
        if client.name not in self.protected_clients:
            return
        self.stats.connections_inspected += 1
        inspector = _ConnectionInspector(self)
        server_end.outbound_inspector = inspector.inspect
