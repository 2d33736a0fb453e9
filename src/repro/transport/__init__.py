"""Protocol-agnostic session layer: dialers and capability records.

Only the capability record (:mod:`repro.transport.base`) and the
shared record framing (:mod:`repro.transport.framing`) are imported
eagerly; the concrete dialers (:mod:`repro.transport.tcp`,
:mod:`repro.transport.quicsim`) import protocol stacks that in turn
depend on the framing here, so importers pull them in directly.
"""

from repro.transport.base import DEFAULT_MAX_STREAMS, SessionCapabilities
from repro.transport.framing import (
    RECORD_HEADER_LEN,
    pack_record,
    parse_records,
)

__all__ = [
    "DEFAULT_MAX_STREAMS",
    "SessionCapabilities",
    "RECORD_HEADER_LEN",
    "pack_record",
    "parse_records",
]
