"""SETTINGS parameters (RFC 7540 §6.5.2)."""

from __future__ import annotations

import enum
from typing import Dict

from repro.h2.errors import ErrorCode, H2ConnectionError


class SettingId(enum.IntEnum):
    HEADER_TABLE_SIZE = 0x1
    ENABLE_PUSH = 0x2
    MAX_CONCURRENT_STREAMS = 0x3
    INITIAL_WINDOW_SIZE = 0x4
    MAX_FRAME_SIZE = 0x5
    MAX_HEADER_LIST_SIZE = 0x6


#: Protocol defaults (RFC 7540 §6.5.2).
DEFAULT_SETTINGS: Dict[int, int] = {
    SettingId.HEADER_TABLE_SIZE: 4096,
    SettingId.ENABLE_PUSH: 1,
    SettingId.MAX_CONCURRENT_STREAMS: 2**31 - 1,  # "unlimited"
    SettingId.INITIAL_WINDOW_SIZE: 65_535,
    SettingId.MAX_FRAME_SIZE: 16_384,
    SettingId.MAX_HEADER_LIST_SIZE: 2**31 - 1,    # "unlimited"
}

MAX_WINDOW_SIZE = 2**31 - 1
MIN_MAX_FRAME_SIZE = 16_384
MAX_MAX_FRAME_SIZE = 2**24 - 1


def validate_setting(identifier: int, value: int) -> None:
    """Raise on values RFC 7540 §6.5.2 forbids; unknown ids are ignored."""
    if identifier == SettingId.ENABLE_PUSH and value not in (0, 1):
        raise H2ConnectionError(
            ErrorCode.PROTOCOL_ERROR, f"ENABLE_PUSH must be 0 or 1, got {value}"
        )
    if identifier == SettingId.INITIAL_WINDOW_SIZE and value > MAX_WINDOW_SIZE:
        raise H2ConnectionError(
            ErrorCode.FLOW_CONTROL_ERROR,
            f"INITIAL_WINDOW_SIZE {value} exceeds {MAX_WINDOW_SIZE}",
        )
    if identifier == SettingId.MAX_FRAME_SIZE and not (
        MIN_MAX_FRAME_SIZE <= value <= MAX_MAX_FRAME_SIZE
    ):
        raise H2ConnectionError(
            ErrorCode.PROTOCOL_ERROR,
            f"MAX_FRAME_SIZE {value} outside "
            f"[{MIN_MAX_FRAME_SIZE}, {MAX_MAX_FRAME_SIZE}]",
        )


class Settings:
    """The settings in force for one direction of a connection.

    The named parameters are plain attributes refreshed on ``apply``;
    they sit on connection hot paths (every DATA frame consults
    ``max_frame_size``), so they must not cost a dict lookup per read.
    """

    __slots__ = (
        "_values",
        "header_table_size",
        "enable_push",
        "max_concurrent_streams",
        "initial_window_size",
        "max_frame_size",
    )

    def __init__(self) -> None:
        self._values: Dict[int, int] = dict(DEFAULT_SETTINGS)
        self._refresh()

    def _refresh(self) -> None:
        values = self._values
        self.header_table_size = values[SettingId.HEADER_TABLE_SIZE]
        self.enable_push = bool(values[SettingId.ENABLE_PUSH])
        self.max_concurrent_streams = values[
            SettingId.MAX_CONCURRENT_STREAMS
        ]
        self.initial_window_size = values[SettingId.INITIAL_WINDOW_SIZE]
        self.max_frame_size = values[SettingId.MAX_FRAME_SIZE]

    def apply(self, identifier: int, value: int) -> None:
        validate_setting(identifier, value)
        if identifier in SettingId._value2member_map_:
            self._values[identifier] = value
            self._refresh()
        # Unknown identifiers MUST be ignored (RFC 7540 §6.5.2).
