"""Text dump format: round-trips, filenames, and malformed-input rejection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import format_dump_lines, parse_dump_lines
from srampuf.chipnet import collector, dumpfile
from srampuf.chipnet.dumpdir import FLOORPLAN_NAME, MANIFEST_NAME, dump_filename
from srampuf.chipnet.dumpfile import (
    MAGIC,
    DumpFormatError,
    DumpHeader,
    _parse_fixed_width,
    _parse_lines,
    bits_to_words,
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


def test_layout_names_stay_reachable_where_the_benchmark_reads_them():
    assert dumpfile.dump_filename is dump_filename
    assert (collector.MANIFEST_NAME, collector.FLOORPLAN_NAME) == (MANIFEST_NAME,
                                                                   FLOORPLAN_NAME)
    with pytest.raises(AttributeError):
        dumpfile.no_such_name


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


def test_format_dump_rejects_word_wider_than_width():
    with pytest.raises(DumpFormatError, match="wider than 8 bits"):
        format_dump(HEADER, [0xFF, 0x00, 0x100, 0x0C])


@pytest.mark.parametrize("depth, width, message", [
    (4, 0, "width 0 is outside 1-64"),
    (4, 65, "width 65 is outside 1-64"),
    (4, 100, "width 100 is outside 1-64"),
    (0, 8, "depth 0 is outside 1-65536"),
    (65537, 8, "depth 65537 is outside 1-65536"),
])
def test_writer_and_reader_refuse_a_geometry_a_dump_cannot_hold(depth, width, message):
    header = DumpHeader("D", depth, width, 2, "R0", "slow", 0, 0)
    with pytest.raises(DumpFormatError, match=message):
        format_dump(header, np.zeros(depth, dtype=np.uint64))
    # Words of all ones in the header's digit count: at width 100, more than a uint64 holds.
    body = [f"{a:04x}: " + "f" * word_hex_width(width) for a in range(depth)]
    text = "\n".join([MAGIC, f"#design D depth={depth} width={width} mux=2 orient=R0 class=slow",
                      "#chip 0 cycle 0", *body, ""])
    with pytest.raises(DumpFormatError, match=message):
        parse_dump(text)


def test_the_deepest_dump_round_trips():
    header = DumpHeader("D", 65536, 1, 2, "R0", "slow", 0, 0)
    words = np.arange(65536, dtype=np.uint64) & np.uint64(1)
    text = format_dump(header, words)
    assert text.endswith("\nfffe: 0\nffff: 1\n")
    assert _parse_fixed_width(text.encode("ascii")) is not None
    parsed_header, got = parse_dump(text)
    assert parsed_header == header
    assert np.array_equal(got, words)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_format_dump_matches_the_line_by_line_oracle(data):
    width = data.draw(st.integers(1, 64), label="width")
    depth = data.draw(st.integers(1, 2048), label="depth")
    words = data.draw(arrays(np.uint64, depth, elements=st.integers(0, 2**width - 1)),
                      label="words")
    header = DumpHeader("P4_b", depth, width, 8, "MX", "slow", 255, 99)
    assert format_dump(header, words) == format_dump_lines(header, words)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_parse_dump_matches_the_line_by_line_oracle(data):
    width = data.draw(st.integers(1, 64), label="width")
    depth = data.draw(st.integers(1, 2048), label="depth")
    words = data.draw(arrays(np.uint64, depth, elements=st.integers(0, 2**width - 1)),
                      label="words")
    header = DumpHeader("P4_b", depth, width, 8, "MX", "slow", 255, 99)
    text = format_dump(header, words)
    for given_as in (text, text.encode("ascii")):
        parsed_header, got = parse_dump(given_as)
        assert parsed_header == header
        assert got.dtype == np.uint64
        assert np.array_equal(got, parse_dump_lines(text))
        assert np.array_equal(got, words)


def _outcome(parse, data):
    """What a parser makes of ``data``: its result, or its error message."""
    try:
        header, words = parse(data)
    except DumpFormatError as e:
        return "error", str(e)
    return header, words.tolist()


WIDE = DumpHeader("W", 6, 10, 2, "R0", "slow", 0, 0)
WIDE_TEXT = format_dump(WIDE, [0x3FF, 0x000, 0x2A5, 0x15A, 0x001, 0x200])


@pytest.mark.parametrize(
    "mutate, expected",
    [
        (lambda t: t, None),
        (lambda t: t.replace("0002: 2a5", "0002: 2A5"), "bad body line 2: '0002: 2A5'"),
        (lambda t: t.replace("0003: 15a", "0003: 15A"), "bad body line 3: '0003: 15A'"),
        (lambda t: t.replace("\n", "\r\n"), None),
        (lambda t: t[:-1], None),
        (lambda t: t.replace("0003: 15a", "0004: 15a"), "address 0004 out of order at line 3"),
        (lambda t: t.replace("0004: 001", "0004: 401"), "word 401 wider than 10 bits"),
        (lambda t: t.replace("0001: 000", "0001: 00"), "bad body line 1: '0001: 00'"),
        (lambda t: t.replace("0001: 000", "0001: 00 "), "bad body line 1: '0001: 00 '"),
        (lambda t: t.replace("0005: 200", "0005:0200"), "bad body line 5: '0005:0200'"),
        (lambda t: t.replace("0005: 200\n", "0005: 200\n\n"), "7 body lines for depth 6"),
    ],
)
def test_fixed_width_parse_falls_back_to_the_line_loop(mutate, expected):
    text = mutate(WIDE_TEXT)
    reference = _outcome(_parse_lines, text)
    if expected is None:
        assert reference[0] == WIDE
    else:
        assert reference == ("error", expected)
    assert _outcome(parse_dump, text) == reference
    assert _outcome(parse_dump, text.encode("utf-8")) == reference
    # only the untouched dump fits the fixed-width view
    assert (_parse_fixed_width(text.encode("utf-8")) is None) == (text != WIDE_TEXT)


# Bytes a mutation writes or inserts: uppercase and non-hex digits, a space,
# line-break bytes, and digits that keep the line well formed.
MUTATION_BYTES = b"ABCDEFg \r0f\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_parse_dump_agrees_with_the_line_loop_on_mutated_dumps(data):
    width = data.draw(st.integers(1, 64), label="width")
    depth = data.draw(st.integers(1, 2048), label="depth")
    words = data.draw(arrays(np.uint64, depth, elements=st.integers(0, 2**width - 1)),
                      label="words")
    header = DumpHeader("P4_b", depth, width, 8, "MX", "slow", 255, 99)
    raw = format_dump(header, words).encode("ascii")
    mutation = data.draw(st.sampled_from(["none", "replace", "insert", "delete", "swap"]),
                         label="mutation")
    if mutation == "swap":
        lines = raw.split(b"\n")
        i, j = (data.draw(st.integers(3, 2 + depth), label="line") for _ in range(2))
        lines[i], lines[j] = lines[j], lines[i]
        raw = b"\n".join(lines)
    elif mutation != "none":
        # the first and the last byte get extra weight: a fast path's edge cases sit there
        at = data.draw(st.sampled_from([0, len(raw) - 1]) | st.integers(0, len(raw) - 1),
                       label="at")
        byte = bytes([data.draw(st.sampled_from(MUTATION_BYTES), label="byte")])
        head, tail = raw[:at], raw[at:] if mutation == "insert" else raw[at + 1:]
        raw = head + (b"" if mutation == "delete" else byte) + tail
    text = raw.decode("ascii")
    reference = _outcome(_parse_lines, text)
    assert _outcome(parse_dump, text) == reference
    assert _outcome(parse_dump, raw) == reference
    if mutation == "none":
        assert reference[0] == header
        assert reference[1] == parse_dump_lines(text).tolist() == words.tolist()


def test_parse_round_trip():
    words = [0xFF, 0x00, 0xA3, 0x0C]
    header, got = parse_dump(format_dump(HEADER, words))
    assert header == HEADER
    assert np.array_equal(got, words)


def test_round_trip_through_a_real_snapshot():
    g = Geometry(depth=64, width=32, mux=8)
    entry = DesignEntry("D", PlacedMacro(g, Orientation.R90), "0(16)1(16)")
    params = ProcessParams()
    snap = power_up(sample_device(entry, params, 5), params, 6)
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
