"""HTTP/2 frame wire format (RFC 7540 §4, §6) plus ORIGIN (RFC 8336).

Every frame is a 9-byte header and a payload:

    +-----------------------------------------------+
    |                 Length (24)                   |
    +---------------+---------------+---------------+
    |   Type (8)    |   Flags (8)   |
    +-+-------------+---------------+-------------------------------+
    |R|                 Stream Identifier (31)                      |
    +=+=============================================================+
    |                   Frame Payload (0...)                      ...
    +---------------------------------------------------------------+

There are no frame objects.  A sender packs a header and a payload
into its outbound buffer with :func:`pack_frame`, the payload built by
the ``encode_*`` function of its type; a receiver unpacks each header
once and hands the payload to the ``decode_*`` function its type table
names (:meth:`repro.h2.connection.H2Connection.receive_data`).  A
decoder takes ``(flags, payload)``, returns the payload's fields and
raises :class:`H2ConnectionError` for a payload of the wrong size or
with bad padding; one of an extension type returns None for a payload
the endpoint must ignore.

The ORIGIN frame (type 0xC) payload is a sequence of Origin-Entry
fields, each a 16-bit length followed by that many bytes of
ASCII-serialized origin (RFC 8336 §2).
"""

from __future__ import annotations

import struct
from typing import Optional, Sequence, Tuple

from repro.h2.errors import ErrorCode, H2ConnectionError

FRAME_HEADER_LEN = 9

#: The 9-byte frame header packed as one struct: the first 32-bit word
#: carries ``(length << 8) | type``, which is exactly the wire layout of
#: the 24-bit length followed by the type octet.
HEADER_STRUCT = struct.Struct(">IBI")

# Frame type codes.
TYPE_DATA = 0x0
TYPE_HEADERS = 0x1
TYPE_PRIORITY = 0x2
TYPE_RST_STREAM = 0x3
TYPE_SETTINGS = 0x4
TYPE_PUSH_PROMISE = 0x5
TYPE_PING = 0x6
TYPE_GOAWAY = 0x7
TYPE_WINDOW_UPDATE = 0x8
TYPE_CONTINUATION = 0x9
TYPE_ORIGIN = 0xC  # RFC 8336
TYPE_CERTIFICATE = 0xD  # draft-ietf-httpbis-http2-secondary-certs

#: A whole WINDOW_UPDATE frame -- header plus the 32-bit increment word
#: -- as one struct, and the first word its header always carries
#: (length 4, type 0x8).  The body path writes these in one call.
WINDOW_UPDATE_STRUCT = struct.Struct(">IBII")
WINDOW_UPDATE_WORD = (4 << 8) | TYPE_WINDOW_UPDATE

# Flag bits.
FLAG_END_STREAM = 0x1   # DATA, HEADERS
FLAG_ACK = 0x1          # SETTINGS, PING
FLAG_END_HEADERS = 0x4  # HEADERS, PUSH_PROMISE, CONTINUATION
FLAG_PADDED = 0x8       # DATA, HEADERS, PUSH_PROMISE
FLAG_PRIORITY = 0x20    # HEADERS
FLAG_TO_BE_CONTINUED = 0x1  # CERTIFICATE (secondary-certs draft)

#: The client connection preface (RFC 7540 §3.5).
CONNECTION_PREFACE = b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"

#: Types a compliant RFC 7540 endpoint recognizes.
KNOWN_TYPES = frozenset(range(TYPE_DATA, TYPE_CONTINUATION + 1))

_SETTING = struct.Struct(">HI")
_GOAWAY = struct.Struct(">II")


def pack_frame(out: bytearray, frame_type: int, flags: int,
               stream_id: int, payload: bytes) -> None:
    """Append one frame's wire bytes to ``out``."""
    if len(payload) > 2**24 - 1:
        raise H2ConnectionError(
            ErrorCode.FRAME_SIZE_ERROR,
            f"payload of {len(payload)} bytes exceeds the 24-bit length",
        )
    out += HEADER_STRUCT.pack(
        (len(payload) << 8) | frame_type, flags, stream_id & 0x7FFFFFFF
    )
    out += payload


# -- payload encoders ---------------------------------------------------------


def encode_settings(settings: Sequence[Tuple[int, int]]) -> bytes:
    return b"".join(_SETTING.pack(identifier, value)
                    for identifier, value in settings)


def encode_goaway(last_stream_id: int, code: ErrorCode,
                  debug: bytes) -> bytes:
    return _GOAWAY.pack(last_stream_id, int(code)) + debug


def encode_origin(origins: Sequence[str]) -> bytes:
    chunks = []
    for origin in origins:
        raw = origin.encode("ascii")
        if len(raw) > 0xFFFF:
            raise H2ConnectionError(
                ErrorCode.FRAME_SIZE_ERROR,
                f"origin {origin[:40]!r}... exceeds 65535 bytes",
            )
        chunks.append(struct.pack(">H", len(raw)) + raw)
    return b"".join(chunks)


def encode_certificate(cert_id: int, fragment: bytes) -> bytes:
    """A CERTIFICATE payload: a 1-byte cert id, then a fragment of the
    serialized chain (the secondary-certs draft, §6.5 of the paper)."""
    if not 0 <= cert_id <= 0xFF:
        raise H2ConnectionError(
            ErrorCode.PROTOCOL_ERROR, f"cert id {cert_id} outside one byte"
        )
    return bytes([cert_id]) + fragment


# -- payload decoders ---------------------------------------------------------


def unpad(flags: int, payload: bytes, frame_type: str) -> bytes:
    """The payload without its pad-length octet and padding."""
    if not flags & FLAG_PADDED:
        return payload
    if not payload:
        raise H2ConnectionError(
            ErrorCode.PROTOCOL_ERROR, f"padded {frame_type} with empty payload"
        )
    pad_length = payload[0]
    if pad_length > len(payload) - 1:
        raise H2ConnectionError(
            ErrorCode.PROTOCOL_ERROR,
            f"{frame_type} pad length {pad_length} exceeds payload",
        )
    return payload[1 : len(payload) - pad_length]


def _exact_size(frame_type: str, size: int, payload: bytes) -> None:
    if len(payload) != size:
        raise H2ConnectionError(
            ErrorCode.FRAME_SIZE_ERROR,
            f"{frame_type} payload must be {size} bytes, got {len(payload)}",
        )


def decode_headers(flags: int, payload: bytes) -> bytes:
    """The header block fragment; priority fields are skipped."""
    block = unpad(flags, payload, "HEADERS")
    if flags & FLAG_PRIORITY:
        if len(block) < 5:
            raise H2ConnectionError(
                ErrorCode.FRAME_SIZE_ERROR, "HEADERS priority too short"
            )
        block = block[5:]
    return block


def decode_priority(flags: int, payload: bytes) -> bytes:
    _exact_size("PRIORITY", 5, payload)
    return payload  # scheduling hints are unused


def decode_rst_stream(flags: int, payload: bytes) -> ErrorCode:
    _exact_size("RST_STREAM", 4, payload)
    return error_code(int.from_bytes(payload, "big"))


def decode_settings(flags: int, payload: bytes) -> Tuple[Tuple[int, int], ...]:
    if len(payload) % 6:
        raise H2ConnectionError(
            ErrorCode.FRAME_SIZE_ERROR,
            f"SETTINGS payload of {len(payload)} not a multiple of 6",
        )
    if flags & FLAG_ACK and payload:
        raise H2ConnectionError(
            ErrorCode.FRAME_SIZE_ERROR, "SETTINGS ACK with payload"
        )
    return tuple(_SETTING.iter_unpack(payload))


def decode_push_promise(flags: int, payload: bytes) -> bytes:
    block = unpad(flags, payload, "PUSH_PROMISE")
    if len(block) < 4:
        raise H2ConnectionError(
            ErrorCode.FRAME_SIZE_ERROR, "PUSH_PROMISE too short"
        )
    return block


def decode_ping(flags: int, payload: bytes) -> bytes:
    _exact_size("PING", 8, payload)
    return payload


def decode_goaway(flags: int,
                  payload: bytes) -> Tuple[int, ErrorCode, bytes]:
    """``(last_stream_id, error_code, debug_data)``."""
    if len(payload) < 8:
        raise H2ConnectionError(ErrorCode.FRAME_SIZE_ERROR, "GOAWAY too short")
    last, code = _GOAWAY.unpack_from(payload)
    return last & 0x7FFFFFFF, error_code(code), payload[8:]


def decode_window_update(flags: int, payload: bytes) -> int:
    _exact_size("WINDOW_UPDATE", 4, payload)
    return int.from_bytes(payload, "big") & 0x7FFFFFFF


def decode_origin(flags: int, payload: bytes) -> Optional[Tuple[str, ...]]:
    """The origin set, or None for a malformed payload, which RFC 8336
    §2.1 says to ignore like an unknown frame."""
    origins = []
    offset = 0
    while offset < len(payload):
        if offset + 2 > len(payload):
            return None
        length = int.from_bytes(payload[offset : offset + 2], "big")
        offset += 2
        if offset + length > len(payload):
            return None
        try:
            origins.append(payload[offset : offset + length].decode("ascii"))
        except UnicodeDecodeError:
            return None
        offset += length
    return tuple(origins)


def decode_certificate(flags: int,
                       payload: bytes) -> Optional[Tuple[int, bytes]]:
    """``(cert_id, fragment)``, or None for an empty payload."""
    if not payload:
        return None
    return payload[0], payload[1:]


def error_code(value: int) -> ErrorCode:
    try:
        return ErrorCode(value)
    except ValueError:
        # Unknown error codes are treated as INTERNAL_ERROR (RFC 7540 §7).
        return ErrorCode.INTERNAL_ERROR
