"""Run-length pattern parsing, emission, and notation round-trips."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import pattern_bit
from srampuf.patterns import (
    NonAlternatingBlock,
    ParseError,
    RunLengthPattern,
    bit_runs,
    canonical_cycle,
    cyclic_notation,
    parse_run_length,
)

# the pattern strings used by the default floorplan
TABLE_PATTERNS = [
    "0(32)1(64)0(64)",
    "0(29)1(29)",
    "0(16)1(16)",
    "0(16)1(32)0(32)",
]


def notation(runs):
    """Plain run-length text of (bit, length) runs, in order."""
    return "".join(f"{bit}({length})" for bit, length in runs)


def test_parse_even_run_count_has_no_offset():
    p = parse_run_length("0(16)1(16)")
    assert p.offset_run is None
    assert p.block == ((0, 16), (1, 16))
    assert p.period == 32


def test_parse_odd_run_count_peels_offset():
    p = parse_run_length("0(32)1(64)0(64)")
    assert p.offset_run == (0, 32)
    assert p.block == ((1, 64), (0, 64))
    assert p.period == 128

    p = parse_run_length("0(16)1(32)0(32)")
    assert p.offset_run == (0, 16)
    assert p.block == ((1, 32), (0, 32))
    assert p.period == 64


def test_parse_single_run_is_constant():
    p = parse_run_length("0(8)")
    assert p.offset_run is None
    assert p.block == ((0, 8),)
    assert p.period == 8
    assert not p.bits(20).any()


@pytest.mark.parametrize(
    "text",
    ["", "0", "0()", "0(0)", "2(4)", "0(16)1(16) ", "x0(4)", "1(1)"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_run_length(text)


def test_parse_rejects_non_alternating_block():
    with pytest.raises(NonAlternatingBlock):
        parse_run_length("0(16)0(16)")
    with pytest.raises(NonAlternatingBlock):
        parse_run_length("0(4)1(8)1(4)0(2)")


def test_bits_prefix_and_periodicity():
    p = parse_run_length("0(32)1(64)0(64)")
    b = p.bits(32 + 128 * 3)
    assert not b[:32].any()
    assert b[32:96].all()
    assert not b[96:160].any()
    # periodic after the offset
    assert np.array_equal(b[32 : 32 + 128], b[160 : 160 + 128])
    assert p.bits(0).size == 0
    with pytest.raises(ValueError):
        p.bits(-1)


def test_signs_are_plus_minus_one():
    p = parse_run_length("0(2)1(2)")
    assert np.array_equal(p.signs(6), [-1.0, -1.0, 1.0, 1.0, -1.0, -1.0])


def test_first_period_wraps_in_the_starting_phase():
    p = parse_run_length("0(32)1(64)0(64)")
    first = p.bits(p.period)
    assert first.size == 128
    # with an offset run, one period seen from position zero is not the
    # block itself: it wraps in the starting phase, 0^32 1^64 0^32
    assert bit_runs(first) == [(0, 32), (1, 64), (0, 32)]


@given(st.sampled_from(TABLE_PATTERNS), st.integers(min_value=0, max_value=700))
def test_bits_agree_with_literal_run_walk(text, k):
    p = parse_run_length(text)
    assert int(p.bits(k + 1)[k]) == pattern_bit(text, k)


def test_cyclic_notation_merges_wrap_around_run():
    assert cyclic_notation([0] * 32 + [1] * 64 + [0] * 32) == "0(32)1(64)0(64)"
    assert cyclic_notation([0] * 16 + [1] * 16) == "0(16)1(16)"
    with pytest.raises(ParseError):
        cyclic_notation([])


@pytest.mark.parametrize("text", TABLE_PATTERNS)
def test_first_period_notation_round_trips(text):
    p = parse_run_length(text)
    assert cyclic_notation(p.bits(p.period)) == text


def test_canonical_cycle():
    arr, flipped = canonical_cycle([1, 0, 1, 1])
    assert np.array_equal(arr, [0, 1, 0, 0]) and flipped
    arr, flipped = canonical_cycle([0, 1])
    assert np.array_equal(arr, [0, 1]) and not flipped
    with pytest.raises(ParseError):
        canonical_cycle([])


def test_bit_runs():
    assert bit_runs(np.array([0, 0, 1, 1, 1, 0])) == [(0, 2), (1, 3), (0, 1)]
    assert bit_runs(np.array([], dtype=np.uint8)) == []
    assert bit_runs(np.ones(4, dtype=np.uint8)) == [(1, 4)]


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=200))
def test_parse_of_plain_encoding_reproduces_vector(bits):
    t = np.asarray(bits, dtype=np.uint8)
    p = parse_run_length(notation(bit_runs(t)))
    assert np.array_equal(p.bits(t.size), t)


@st.composite
def patterns(draw):
    # run-count parity encodes the offset, so only single-run or even-run
    # blocks (optionally prefixed) are expressible in the notation
    first = draw(st.integers(min_value=0, max_value=1))
    n_runs = draw(st.sampled_from([1, 2, 4, 6]))
    block = tuple(
        ((first + i) % 2, draw(st.integers(min_value=1, max_value=40)))
        for i in range(n_runs)
    )
    if n_runs == 1 and block[0][1] < 2:
        block = ((block[0][0], 2),)
    offset = None
    if n_runs > 1 and draw(st.booleans()):
        offset = (1 - first, draw(st.integers(min_value=1, max_value=40)))
    return RunLengthPattern(offset_run=offset, block=block)


@given(patterns())
def test_notation_round_trips_through_parser(p):
    runs = ([p.offset_run] if p.offset_run else []) + list(p.block)
    assert parse_run_length(notation(runs)) == p
