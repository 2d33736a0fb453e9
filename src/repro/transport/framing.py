"""Length-prefixed record framing shared by every simulated protocol.

Both the TLS-over-TCP channel (:mod:`repro.h2.tls_channel`) and the
QUIC-flavored datagram session (:mod:`repro.transport.quicsim`) frame
their wire bytes as 5-byte-header records (type + 32-bit length), and
the on-path middlebox model (:mod:`repro.deployment.middlebox`) parses
the same framing to inspect traffic.  This module is the single
definition all three share.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

RECORD_HEADER_LEN = 5

REC_HELLO = 0x01
REC_SHELLO = 0x06
REC_CERT = 0x02
REC_KEYX = 0x04
REC_FINISHED = 0x03
REC_TICKET = 0x07
REC_APPDATA = 0x17
REC_ALERT = 0x15


RECORD_STRUCT = struct.Struct(">BI")


def pack_record(record_type: int, payload: bytes) -> bytes:
    return RECORD_STRUCT.pack(record_type, len(payload)) + payload


def parse_records(buffer: bytes) -> Tuple[List[Tuple[int, bytes]], bytes]:
    """Parse complete records off ``buffer``; returns (records, rest).

    Walks the buffer with a ``memoryview`` and an offset so a burst of N
    records costs one tail copy instead of N shrinking-buffer copies.
    """
    records: List[Tuple[int, bytes]] = []
    view = memoryview(buffer)
    total = len(view)
    offset = 0
    while total - offset >= RECORD_HEADER_LEN:
        record_type, length = RECORD_STRUCT.unpack_from(view, offset)
        end = offset + RECORD_HEADER_LEN + length
        if end > total:
            break
        records.append(
            (record_type, bytes(view[offset + RECORD_HEADER_LEN : end]))
        )
        offset = end
    if offset == 0:
        return records, buffer
    return records, bytes(view[offset:])


def consume_records(buffer: bytearray) -> List[Tuple[int, bytes]]:
    """Parse complete records out of a persistent receive buffer.

    Consumed bytes are deleted from ``buffer`` in place, so channels can
    keep one reusable ``bytearray`` per connection instead of rebuilding
    a ``bytes`` object on every delivery.
    """
    records: List[Tuple[int, bytes]] = []
    offset = 0
    try:
        with memoryview(buffer) as view:
            total = len(view)
            while total - offset >= RECORD_HEADER_LEN:
                record_type, length = RECORD_STRUCT.unpack_from(
                    view, offset
                )
                end = offset + RECORD_HEADER_LEN + length
                if end > total:
                    break
                records.append(
                    (record_type,
                     bytes(view[offset + RECORD_HEADER_LEN : end]))
                )
                offset = end
    finally:
        if offset:
            del buffer[:offset]
    return records
