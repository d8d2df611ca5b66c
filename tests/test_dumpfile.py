"""Text dump format: round-trips, filenames, and malformed-input rejection."""

import itertools
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (decode_bits, format_dump_lines, load_bits_per_file, parse_dump_lines,
                     parse_lines, parse_written, unpack_octets)
from srampuf.biasdetect import InsufficientData
from srampuf.chipnet import collector, dumpdir, dumpfile
from srampuf.chipnet.dumpdir import FLOORPLAN_NAME, MANIFEST_NAME, dump_filename, load_bits
from srampuf.chipnet.dumpfile import (
    MAGIC,
    DumpFormatError,
    DumpHeader,
    bits_to_words,
    decode_bodies,
    decode_dump,
    format_dump,
    header_text,
    parse_dump,
    parse_header,
    word_byte_width,
    word_hex_width,
    words_to_bits,
    written_header,
)
from srampuf.layout import Geometry, Orientation
from srampuf.simchip import DesignEntry, ProcessParams, power_up, sample_device

HEADER = DumpHeader(
    design="P1_a", depth=4, width=8, mux=4, orient="R0",
    speed_class="fast", chip=7, cycle=3,
)


def _fast_path(raw: bytes):
    """The stack decoder's octets for one whole dump; None unless format_dump wrote it."""
    header = written_header(raw)
    if header is None:
        return None
    return decode_bodies(header, bytearray(raw[len(header_text(header)):]), 1)


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
    assert _fast_path(text.encode("ascii")) is not None
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
        # headers the loop reads alike, though the writer never writes them
        (lambda t: t.replace("depth=6", "depth=06"), None),
        (lambda t: t.replace("#chip 0 ", "#chip 00 "), None),
    ],
)
def test_fixed_width_parse_falls_back_to_the_line_loop(mutate, expected):
    """``expected`` is the line loop's error, or None where the loop reads the text."""
    text = mutate(WIDE_TEXT)
    lenient = _outcome(parse_lines, text)
    assert lenient[0] == WIDE if expected is None else lenient == ("error", expected)
    # The reader takes only the untouched dump, and refuses the rest as the strict loop does.
    reference = _outcome(parse_written, text)
    if text == WIDE_TEXT or expected:
        assert reference == lenient
    else:
        assert reference[0] == "error"
    assert _outcome(parse_dump, text) == reference
    assert _outcome(parse_dump, text.encode("utf-8")) == reference
    # only the untouched dump fits the fixed-width view
    assert (_fast_path(text.encode("utf-8")) is None) == (text != WIDE_TEXT)


@pytest.mark.parametrize("end", ["\r", "\v", "\f", "\x1c", "\x85", "\u2028"],
                         ids=["cr", "vt", "ff", "fs", "nel", "ls"])
def test_the_reader_refuses_every_other_line_end(end):
    text = WIDE_TEXT.replace("0002: 2a5\n", "0002: 2a5" + end)
    assert _outcome(parse_lines, text)[0] == WIDE  # a reader split at any line end takes it
    expected = ("error", f"line 6 is {'0002: 2a5' + end!r}, not '0002: 2a5\\n'")
    assert _outcome(parse_written, text) == expected
    assert _outcome(parse_dump, text) == expected
    assert _outcome(parse_dump, text.encode("utf-8")) == expected


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
    reference = _outcome(parse_written, text)
    assert _outcome(parse_dump, text) == reference
    assert _outcome(parse_dump, raw) == reference
    # The path analyze reads: the same bits as the line loop's words, or the same error.
    bits = reference if reference[0] == "error" else (
        reference[0], words_to_bits(reference[1], reference[0].width).tolist())
    assert _outcome(decode_bits, raw) == bits
    # The fast path takes exactly the bytes the writer writes.
    assert (_fast_path(raw) is None) == (reference[0] == "error")
    if mutation == "none":
        assert reference[0] == header
        assert reference[1] == parse_dump_lines(text).tolist() == words.tolist()


def _mutate_dump(data, mutation, raw, header):
    """``raw``, the dump of ``header``, changed by one ``LOAD_MUTATIONS`` entry."""
    head, digits = len(header_text(header)), word_hex_width(header.width)
    line = head + (digits + 7) * data.draw(st.integers(0, header.depth - 1), label="line")
    if mutation == "body byte":
        at = data.draw(st.integers(head, len(raw) - 1), label="at")
        return raw[:at] + bytes([data.draw(st.sampled_from(MUTATION_BYTES), label="byte")]) \
            + raw[at + 1:]
    if mutation == "uppercase":  # the line's last digit
        last = line + 5 + digits
        return raw[:last] + bytes([data.draw(st.sampled_from(b"ABCDEF"), label="digit")]) + raw[last + 1:]
    if mutation == "past width":  # the line's first digit, whose top bits lie past the width
        return raw[:line + 6] + b"f" + raw[line + 7:]
    if mutation == "crlf":
        return raw.replace(b"\n", b"\r\n")
    if mutation == "depth=06":
        return raw.replace(b" depth=", b" depth=0", 1)
    if mutation == "chip line":
        return raw.replace(f"#chip {header.chip} ".encode(), f"#chip {header.chip + 5} ".encode())
    if mutation == "other depth":
        depth = header.depth + data.draw(st.sampled_from([-1, 1]) if header.depth > 1
                                         else st.just(1), label="depth change")
        return format_dump(replace(header, depth=depth), np.zeros(depth, np.uint64)).encode()
    if mutation == "truncate":
        return raw[:data.draw(st.integers(0, len(raw) - 1), label="cut")]
    return raw


LOAD_MUTATIONS = ["none", "body byte", "uppercase", "past width", "crlf", "depth=06",
                  "chip line", "other depth", "truncate", "directory"]


def _load_unpacked(directory, design, files, chips, cycles):
    """``load_bits`` with its packed readings unpacked to (chips, cycles, cells) bits."""
    header, packed = load_bits(directory, design, files, chips, cycles)
    bits = unpack_octets(packed.reshape(-1, word_byte_width(header.width)), header.width)
    return header, bits.reshape(len(chips), len(cycles), -1)


def _load_outcome(load, directory, files, chips, cycles):
    """What a loader makes of a directory: header and bits, or its error's type and message."""
    try:
        header, bits = load(directory, "P4_b", files, chips, cycles)
    except (DumpFormatError, InsufficientData, OSError) as e:
        return type(e), str(e)
    return header, bits.dtype, bits.shape, bits.tobytes()


@pytest.mark.parametrize("mutation", LOAD_MUTATIONS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_load_bits_matches_the_per_file_oracle_on_a_mutated_dump(mutation, data):
    width = data.draw(st.integers(1, 64).filter(lambda w: w % 4) if mutation == "past width"
                      else st.integers(1, 64), label="width")
    depth = data.draw(st.integers(1, 40), label="depth")
    chips = list(range(data.draw(st.integers(2, 3), label="chips")))
    cycles = list(range(data.draw(st.integers(2, 3), label="cycles")))
    keys = list(itertools.product(chips, cycles))
    headers = {key: DumpHeader("P4_b", depth, width, 8, "MX", "slow", *key) for key in keys}
    raws = {key: format_dump(header, data.draw(
        arrays(np.uint64, depth, elements=st.integers(0, 2**width - 1)), label="words")).encode()
        for key, header in headers.items()}
    # The first and the last dump get extra weight: the first sets the geometry.
    k = data.draw(st.sampled_from([0, len(keys) - 1]) | st.integers(0, len(keys) - 1),
                  label="dump")
    if mutation == "directory":  # read after an earlier mutated dump
        k = max(k, 1)
        earlier = keys[data.draw(st.integers(0, k - 1), label="earlier dump")]
        raws[earlier] = _mutate_dump(data, data.draw(st.sampled_from(LOAD_MUTATIONS[1:-1]),
                                                     label="earlier mutation"),
                                     raws[earlier], headers[earlier])
        raws[keys[k]] = None
    else:
        raws[keys[k]] = _mutate_dump(data, mutation, raws[keys[k]], headers[keys[k]])
    with tempfile.TemporaryDirectory() as tmp:
        files = {key: dump_filename("P4_b", *key) for key in keys}
        for key, raw in raws.items():
            path = Path(tmp, files[key])
            path.mkdir() if raw is None else path.write_bytes(raw)
        with mock.patch.object(dumpdir, "decode_dump", wraps=decode_dump) as per_file:
            got = _load_outcome(_load_unpacked, tmp, files, chips, cycles)
        assert got == _load_outcome(load_bits_per_file, tmp, files, chips, cycles)
    if mutation == "none":  # written dumps decode as one stack
        assert per_file.call_count == 0
        assert got[0] == headers[keys[0]]


def _written_dumps(directory, header_design):
    """2 x 2 dumps named for P4_b, as format_dump writes them for ``header_design``."""
    words = np.arange(5, dtype=np.uint64)
    files = {}
    for key in itertools.product([0, 1], [0, 1]):
        files[key] = dump_filename("P4_b", *key)
        header = DumpHeader(header_design, 5, 12, 8, "MX", "slow", *key)
        Path(directory, files[key]).write_text(format_dump(header, words), encoding="ascii")
    return files


def test_load_bits_refuses_a_dump_with_bytes_past_its_body(tmp_path):
    files = _written_dumps(tmp_path, "P4_b")
    with open(tmp_path / files[(1, 0)], "ab") as fh:  # one line more than its depth
        fh.write(b"0005: 005\n")
    want = _load_outcome(load_bits_per_file, tmp_path, files, [0, 1], [0, 1])
    assert want[0] is DumpFormatError
    assert _load_outcome(_load_unpacked, tmp_path, files, [0, 1], [0, 1]) == want


def test_load_bits_refuses_dumps_whose_headers_name_another_design(tmp_path):
    files = _written_dumps(tmp_path, "P5_a")
    want = _load_outcome(load_bits_per_file, tmp_path, files, [0, 1], [0, 1])
    assert want == (InsufficientData,
                    "P4_b_chip000_cycle00.pufdump: design disagrees with its file name")
    assert _load_outcome(_load_unpacked, tmp_path, files, [0, 1], [0, 1]) == want


def test_a_design_named_beyond_ascii_decodes_as_one_stack(tmp_path):
    keys = list(itertools.product([0, 1], [0, 1]))
    files = {key: dump_filename("P\u00e9", *key) for key in keys}
    for key in keys:
        header = DumpHeader("P\u00e9", 5, 12, 8, "MX", "slow", *key)
        words = np.arange(5, dtype=np.uint64) * np.uint64(1 + sum(key))
        Path(tmp_path, files[key]).write_text(format_dump(header, words), encoding="utf-8")
    assert decode_dump(Path(tmp_path, files[(1, 1)]).read_bytes())[0] == header
    with mock.patch.object(dumpdir, "decode_dump", None):  # never file by file
        got = _load_unpacked(tmp_path, "P\u00e9", files, [0, 1], [0, 1])
    want = load_bits_per_file(tmp_path, "P\u00e9", files, [0, 1], [0, 1])
    assert got[0] == want[0] and np.array_equal(got[1], want[1])


def test_parse_round_trip():
    words = [0xFF, 0x00, 0xA3, 0x0C]
    header, got = parse_dump(format_dump(HEADER, words))
    assert header == HEADER
    assert np.array_equal(got, words)


def test_round_trip_through_a_real_snapshot():
    g = Geometry(depth=64, width=32, mux=8)
    entry = DesignEntry("D", g, Orientation.R90, "0(16)1(16)")
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
