"""HPACK tests: integer/string primitives, tables, encoder/decoder."""

import pytest
from hypothesis import given, strategies as st

from repro.h2 import HpackDecoder, HpackEncoder, HpackError
from repro.h2.hpack import (
    DynamicTable,
    STATIC_TABLE,
    decode_integer,
    decode_string,
    encode_integer,
    encode_string,
)


class TestIntegerCoding:
    def test_rfc7541_c11_example(self):
        # Encoding 10 with a 5-bit prefix -> 0x0A.
        assert encode_integer(10, 5) == b"\x0a"

    def test_rfc7541_c12_example(self):
        # Encoding 1337 with a 5-bit prefix -> 1F 9A 0A.
        assert encode_integer(1337, 5) == b"\x1f\x9a\x0a"

    def test_rfc7541_c13_example(self):
        # Encoding 42 in an 8-bit prefix -> 0x2A.
        assert encode_integer(42, 8) == b"\x2a"

    def test_pattern_bits_preserved(self):
        assert encode_integer(2, 7, 0x80) == b"\x82"

    @given(st.integers(0, 2**28), st.integers(1, 8))
    def test_roundtrip(self, value, prefix):
        wire = encode_integer(value, prefix)
        decoded, offset = decode_integer(wire, 0, prefix)
        assert decoded == value
        assert offset == len(wire)

    def test_negative_rejected(self):
        with pytest.raises(HpackError):
            encode_integer(-1, 5)

    def test_truncated_continuation_rejected(self):
        wire = encode_integer(1337, 5)[:-1]
        with pytest.raises(HpackError):
            decode_integer(wire, 0, 5)

    def test_overflow_guard(self):
        with pytest.raises(HpackError):
            decode_integer(b"\x1f" + b"\xff" * 8, 0, 5)


class TestStringCoding:
    @given(st.text(max_size=200))
    def test_roundtrip(self, text):
        wire = encode_string(text)
        decoded, offset = decode_string(wire, 0)
        assert decoded == text
        assert offset == len(wire)

    def test_huffman_flag_rejected(self):
        with pytest.raises(HpackError):
            decode_string(b"\x83abc", 0)

    def test_truncated_string_rejected(self):
        with pytest.raises(HpackError):
            decode_string(b"\x05ab", 0)


class TestDynamicTable:
    def test_fifo_eviction(self):
        table = DynamicTable(max_size=100)
        table.add("a", "1")  # 34 bytes
        table.add("b", "2")  # 34 bytes
        table.add("c", "3")  # 34 bytes -> evicts "a"
        assert table.find("a", "1") is None
        assert table.find("c", "3") == 1  # newest first

    def test_oversized_entry_empties_table(self):
        table = DynamicTable(max_size=50)
        table.add("a", "1")
        table.add("huge", "x" * 100)
        assert len(table) == 0

    def test_resize_evicts(self):
        table = DynamicTable(max_size=200)
        table.add("a", "1")
        table.add("b", "2")
        table.resize(40)
        assert len(table) == 1
        assert table.find("b", "2") == 1

    def test_index_out_of_range(self):
        table = DynamicTable()
        with pytest.raises(HpackError):
            table.get(1)


REQUEST_HEADERS = [
    (":method", "GET"),
    (":scheme", "https"),
    (":authority", "www.example.com"),
    (":path", "/index.html"),
    ("user-agent", "repro-browser/1.0"),
    ("accept", "text/html"),
]


class TestEncoderDecoder:
    def test_roundtrip_request(self):
        encoder, decoder = HpackEncoder(), HpackDecoder()
        block = encoder.encode(REQUEST_HEADERS)
        assert decoder.decode(block) == REQUEST_HEADERS

    def test_static_table_entries_are_one_byte(self):
        encoder = HpackEncoder()
        assert encoder.encode([(":method", "GET")]) == b"\x82"
        assert encoder.encode([(":scheme", "https")]) == b"\x87"

    def test_repeated_headers_compress_smaller(self):
        encoder = HpackEncoder()
        first = encoder.encode(REQUEST_HEADERS)
        second = encoder.encode(REQUEST_HEADERS)
        assert len(second) < len(first)

    def test_state_consistency_across_blocks(self):
        encoder, decoder = HpackEncoder(), HpackDecoder()
        for _ in range(3):
            block = encoder.encode(REQUEST_HEADERS)
            assert decoder.decode(block) == REQUEST_HEADERS

    def test_sensitive_headers_never_indexed(self):
        encoder, decoder = HpackEncoder(), HpackDecoder()
        headers = [("authorization", "Bearer secret"), ("cookie", "sid=1")]
        encoder.encode(headers)
        block2 = encoder.encode(headers)
        # Values must not have entered the dynamic table.
        assert encoder.table.find("authorization", "Bearer secret") is None
        assert encoder.table.find("cookie", "sid=1") is None
        assert decoder.decode(block2) == headers

    def test_header_names_lowercased(self):
        encoder, decoder = HpackEncoder(), HpackDecoder()
        block = encoder.encode([("Content-Type", "text/html")])
        assert decoder.decode(block) == [("content-type", "text/html")]

    def test_decoder_rejects_index_zero(self):
        with pytest.raises(HpackError):
            HpackDecoder().decode(b"\x80")

    def test_decoder_rejects_unknown_dynamic_index(self):
        with pytest.raises(HpackError):
            HpackDecoder().decode(b"\xff\x7f")  # far beyond any table

    def test_table_size_update_respects_settings_bound(self):
        decoder = HpackDecoder(max_table_size=100)
        # 0x20 | size via 5-bit prefix: request 4096 > bound 100.
        update = bytes([0x3f, 0xe1, 0x1f])
        with pytest.raises(HpackError):
            decoder.decode(update)

    def test_table_size_update_applies(self):
        decoder = HpackDecoder(max_table_size=4096)
        decoder.decode(bytes([0x20]))  # resize to 0
        assert decoder.table.max_size == 0

    def test_static_table_has_61_entries(self):
        assert len(STATIC_TABLE) == 61
        assert STATIC_TABLE[0] == (":authority", "")
        assert STATIC_TABLE[60] == ("www-authenticate", "")

    @given(
        st.lists(
            st.tuples(
                st.from_regex(r"[a-z][a-z0-9-]{0,15}", fullmatch=True),
                st.text(
                    alphabet=st.characters(min_codepoint=32,
                                           max_codepoint=126),
                    max_size=30,
                ),
            ),
            max_size=25,
        )
    )
    def test_arbitrary_headers_roundtrip(self, headers):
        encoder, decoder = HpackEncoder(), HpackDecoder()
        block = encoder.encode(headers)
        assert decoder.decode(block) == headers

    @given(st.integers(0, 5))
    def test_multi_block_streams_stay_synchronized(self, extra):
        encoder, decoder = HpackEncoder(), HpackDecoder()
        blocks = []
        for i in range(3 + extra):
            headers = REQUEST_HEADERS + [("x-request-id", str(i))]
            blocks.append((headers, encoder.encode(headers)))
        for headers, block in blocks:
            assert decoder.decode(block) == headers
