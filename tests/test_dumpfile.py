"""Text dump format: round-trips, filenames, and malformed-input rejection."""

import numpy as np
import pytest

from srampuf.chipnet.dumpfile import (
    DumpFormatError,
    DumpHeader,
    bits_to_words,
    dump_filename,
    format_dump,
    parse_dump,
    parse_header,
    word_hex_width,
    words_to_bits,
)
from srampuf.layout import Geometry, Orientation, PlacedMacro
from srampuf.simchip import DesignEntry, ProcessParams, power_up, sample_device

HEADER = DumpHeader(
    design="P1_a", depth=4, width=8, mux=4, orient="R0",
    speed_class="fast", chip=7, cycle=3,
)


def test_dump_filename():
    assert dump_filename("P1_a", 7, 3) == "P1_a_chip007_cycle03.pufdump"
    assert dump_filename("P6", 0, 0) == "P6_chip000_cycle00.pufdump"


def test_word_hex_width_rounds_up():
    assert word_hex_width(8) == 2
    assert word_hex_width(9) == 3
    assert word_hex_width(64) == 16
    assert word_hex_width(1) == 1


def test_format_dump_layout():
    text = format_dump(HEADER, [0xFF, 0x00, 0xA3, 0x0C])
    assert text == (
        "#PUFDUMP v1\n"
        "#design P1_a depth=4 width=8 mux=4 orient=R0 class=fast\n"
        "#chip 7 cycle 3\n"
        "0000: ff\n"
        "0001: 00\n"
        "0002: a3\n"
        "0003: 0c\n"
    )


def test_format_dump_word_count_must_match_depth():
    with pytest.raises(DumpFormatError):
        format_dump(HEADER, [1, 2, 3])


def test_parse_round_trip():
    words = [0xFF, 0x00, 0xA3, 0x0C]
    header, got = parse_dump(format_dump(HEADER, words))
    assert header == HEADER
    assert np.array_equal(got, words)


def test_round_trip_through_a_real_snapshot():
    g = Geometry(depth=64, width=32, mux=8)
    entry = DesignEntry("D", PlacedMacro(g, Orientation.R90), "0(16)1(16)")
    params = ProcessParams()
    snap = power_up(sample_device(entry, params, 5), params, 6, chip_id=1, cycle=2)
    header = DumpHeader("D", g.depth, g.width, g.mux, "R90", "slow", 1, 2)
    parsed_header, words = parse_dump(format_dump(header, bits_to_words(snap.bits)))
    assert parsed_header == header
    assert np.array_equal(words, bits_to_words(snap.bits))
    assert np.array_equal(words_to_bits(words, g.width), snap.bits)


def test_parse_header_only_needs_three_lines():
    text = format_dump(HEADER, [1, 2, 3, 4])
    header = parse_header(text.splitlines()[:3])
    assert header == HEADER


@pytest.mark.parametrize(
    "mutate",
    [
        lambda t: t.replace("#PUFDUMP v1", "#PUFDUMP v2"),
        lambda t: t.replace("depth=4", "depth four"),
        lambda t: t.replace("class=fast", "class=medium"),
        lambda t: t.replace("#chip 7 cycle 3", "#chip seven cycle 3"),
        lambda t: t.replace("0001: 00\n", ""),  # body line count
        lambda t: t.replace("0001: 00", "0002: 00"),  # address order
        lambda t: t.replace("0002: a3", "0002: 1a3"),  # wrong digit count
        lambda t: t.replace("0002: a3", "0002: A3"),  # uppercase hex
        lambda t: "",
    ],
)
def test_parse_rejects_malformed_dumps(mutate):
    text = format_dump(HEADER, [0xFF, 0x00, 0xA3, 0x0C])
    with pytest.raises(DumpFormatError):
        parse_dump(mutate(text))


def test_parse_rejects_word_wider_than_width():
    header = DumpHeader("D", 1, 6, 2, "R0", "slow", 0, 0)
    text = format_dump(header, [0x3F])
    bad = text.replace("0000: 3f", "0000: 7f")  # bit 6 set on a width-6 word
    with pytest.raises(DumpFormatError):
        parse_dump(bad)


def test_words_to_bits_column_semantics():
    bits = words_to_bits([0b1011], 4)
    assert np.array_equal(bits, [[1, 1, 0, 1]])  # column b holds word bit b
    full = words_to_bits([1 << 63], 64)
    assert full[0, 63] == 1 and full[0, :63].sum() == 0


def test_bits_to_words_inverts_words_to_bits():
    bits = np.array([[1, 0, 1, 0], [0, 1, 1, 1]], dtype=np.uint8)
    assert np.array_equal(bits_to_words(bits), [5, 14])
    words = np.random.default_rng(3).integers(0, 1 << 63, size=32, dtype=np.uint64) << 1
    assert np.array_equal(bits_to_words(words_to_bits(words, 64)), words)
