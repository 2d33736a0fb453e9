"""SETTINGS parameter validation (RFC 7540 §6.5.2)."""

import pytest

from repro.h2 import H2ConnectionError, SettingId, Settings
from repro.h2.settings import (
    DEFAULT_SETTINGS,
    MAX_MAX_FRAME_SIZE,
    MAX_WINDOW_SIZE,
    MIN_MAX_FRAME_SIZE,
    validate_setting,
)


class TestDefaults:
    def test_protocol_defaults(self):
        settings = Settings()
        assert settings.header_table_size == 4096
        assert settings.enable_push is True
        assert settings.initial_window_size == 65_535
        assert settings.max_frame_size == 16_384

    def test_defaults_match_rfc(self):
        assert DEFAULT_SETTINGS[SettingId.INITIAL_WINDOW_SIZE] == 65_535
        assert DEFAULT_SETTINGS[SettingId.MAX_FRAME_SIZE] == 16_384


class TestValidation:
    def test_enable_push_must_be_boolean(self):
        validate_setting(SettingId.ENABLE_PUSH, 0)
        validate_setting(SettingId.ENABLE_PUSH, 1)
        with pytest.raises(H2ConnectionError):
            validate_setting(SettingId.ENABLE_PUSH, 2)

    def test_window_size_bound(self):
        validate_setting(SettingId.INITIAL_WINDOW_SIZE, MAX_WINDOW_SIZE)
        with pytest.raises(H2ConnectionError):
            validate_setting(SettingId.INITIAL_WINDOW_SIZE,
                             MAX_WINDOW_SIZE + 1)

    def test_max_frame_size_bounds(self):
        validate_setting(SettingId.MAX_FRAME_SIZE, MIN_MAX_FRAME_SIZE)
        validate_setting(SettingId.MAX_FRAME_SIZE, MAX_MAX_FRAME_SIZE)
        for bad in (MIN_MAX_FRAME_SIZE - 1, MAX_MAX_FRAME_SIZE + 1):
            with pytest.raises(H2ConnectionError):
                validate_setting(SettingId.MAX_FRAME_SIZE, bad)

    def test_unknown_identifiers_ignored(self):
        settings = Settings()
        settings.apply(0x99, 12345)  # must not raise, must not store
        assert 0x99 not in settings._values

    def test_apply_updates_known_values(self):
        settings = Settings()
        settings.apply(SettingId.MAX_CONCURRENT_STREAMS, 100)
        assert settings.max_concurrent_streams == 100

    def test_apply_validates(self):
        settings = Settings()
        with pytest.raises(H2ConnectionError):
            settings.apply(SettingId.ENABLE_PUSH, 7)
