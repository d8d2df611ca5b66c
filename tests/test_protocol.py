"""Request encoding and the 70-bit response frame format."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import assemble_frame
from srampuf.chipnet.dumpfile import words_to_bits
from srampuf.chipnet.protocol import (
    ERR_NO_CHIP,
    FRAME_LEN,
    OP_READ,
    READ_COMMAND,
    START_DATA,
    START_ERROR,
    ProtocolError,
    ReadRequest,
    ResponseFrame,
    SelectOutOfRange,
    WidthTooLarge,
    decode_data_frames,
    decode_requests,
    decode_response,
    encode_control,
    encode_error,
    encode_request,
    frames_for_bits,
    read_commands,
)
from srampuf.layout import AddressOutOfRange


def test_request_encoding_examples():
    assert encode_request(ReadRequest(0, 0)) == bytes.fromhex("0000")
    assert encode_request(ReadRequest(1, 1)) == bytes.fromhex("0801")
    assert encode_request(ReadRequest(10, 1023)) == bytes.fromhex("53ff")


def test_request_validation():
    with pytest.raises(SelectOutOfRange):
        ReadRequest(11, 0)
    with pytest.raises(SelectOutOfRange):
        ReadRequest(-1, 0)
    with pytest.raises(AddressOutOfRange):
        ReadRequest(0, 2048)


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=2047))
def test_request_round_trip(select, address):
    r = ReadRequest(select, address)
    assert decode_requests(int.from_bytes(encode_request(r), "big")) == (select, address)


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=1, max_value=2048))
def test_read_commands_match_the_per_address_encoding(select, depth):
    blob = read_commands(select, depth)
    assert blob == b"".join(bytes([OP_READ]) + encode_request(ReadRequest(select, a))
                            for a in range(depth))
    got_select, got_address = decode_requests(np.frombuffer(blob, READ_COMMAND)["request"])
    assert set(got_select.tolist()) == {select}
    assert got_address.tolist() == list(range(depth))


def test_read_commands_validation_and_the_reserved_bit():
    with pytest.raises(SelectOutOfRange):
        read_commands(11, 4)
    with pytest.raises(AddressOutOfRange):
        read_commands(0, 2049)
    select, address = decode_requests(np.array([0x8000 | 3 << 11 | 5], dtype=">u2"))
    assert select[0] >= 16 and address[0] == 5


def data_frame(word):
    """The frame frames_for_bits gives for one word (bits indexed 0..w-1)."""
    return frames_for_bits(np.asarray([word], dtype=np.uint8))[0].tobytes()


def frame_table(*frames):
    """Frames as the (n, 9) uint8 array a client reads off the wire."""
    return np.frombuffer(b"".join(frames), dtype=np.uint8).reshape(-1, FRAME_LEN)


def wire_data_bits(word):
    """The 64 data-field bits of a word as the oracle writes them: MSB first."""
    return [int(b) for b in word][::-1] + [0] * (64 - len(word))


def test_all_zero_data_frame_bytes():
    frame = data_frame(np.zeros(64))
    assert frame == bytes.fromhex("a0" + "00" * 7 + "08")
    assert frame == assemble_frame("0" * 64)


def test_all_ones_data_frame_bytes():
    frame = data_frame(np.ones(64))
    assert frame == bytes.fromhex("bf" + "ff" * 7 + "e8")
    assert frame == assemble_frame("1" * 64)


def test_data_frame_is_high_aligned_msb_first():
    # word bits 0..3 = 1,0,1,1 -> wire order 1101, then 60 zeros
    frame = data_frame([1, 0, 1, 1])
    assert frame == assemble_frame("1101" + "0" * 60)
    decoded = decode_response(frame)
    assert decoded.start == START_DATA
    assert not decoded.is_error
    assert np.array_equal(decode_data_frames(frame_table(frame), 4), [0b1101])


def test_control_frame_carries_plain_integer():
    frame = encode_control(3)
    assert frame == assemble_frame(format(3, "064b"))
    decoded = decode_response(frame)
    assert decoded.start == START_DATA
    assert decoded.data == 3
    with pytest.raises(ProtocolError):
        encode_control(-1)
    with pytest.raises(ProtocolError):
        encode_control(1 << 64)


def test_error_frame_start_bits():
    frame = encode_error(ERR_NO_CHIP)
    assert len(frame) == FRAME_LEN
    assert frame[0] >> 5 == START_ERROR
    decoded = decode_response(frame)
    assert decoded.is_error
    assert decoded.data == ERR_NO_CHIP


def test_decode_response_rejects_malformed_frames():
    with pytest.raises(ProtocolError):
        decode_response(b"\x00" * 8)
    good = bytearray(encode_control(0))
    bad_pad = good.copy()
    bad_pad[-1] |= 0b01
    with pytest.raises(ProtocolError):
        decode_response(bytes(bad_pad))
    bad_stop = bytearray(assemble_frame("0" * 64))
    bad_stop[-1] = 0b00010000  # stop bits 100
    with pytest.raises(ProtocolError):
        decode_response(bytes(bad_stop))
    bad_start = (0b111 << 69 | 0b010 << 2).to_bytes(9, "big")
    with pytest.raises(ProtocolError):
        decode_response(bad_start)


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_control_and_error_frames_match_the_oracle(payload):
    frame = assemble_frame(format(payload, "064b"))
    error = bytes([frame[0] & 0b00011111]) + frame[1:]  # start bits 000
    assert encode_control(payload) == frame
    assert encode_error(payload) == error
    assert decode_response(frame) == ResponseFrame(START_DATA, payload)
    assert decode_response(error) == ResponseFrame(START_ERROR, payload)


# Field -> (byte of the frame, shift of its lowest bit there, width in bits).
FRAME_FIELDS = {"start": (0, 5, 3), "stop": (8, 2, 3), "pad": (8, 0, 2)}


@given(st.data())
def test_decoder_names_the_one_corrupted_frame(data):
    depth = data.draw(st.integers(min_value=1, max_value=64))
    w = data.draw(st.integers(min_value=1, max_value=64))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    table = frames_for_bits(rng.integers(0, 2, size=(depth, w)).astype(np.uint8)).copy()
    row = data.draw(st.integers(min_value=0, max_value=depth - 1))
    byte, shift, size = FRAME_FIELDS[data.draw(st.sampled_from(sorted(FRAME_FIELDS)))]
    table[row, byte] ^= data.draw(st.integers(min_value=1, max_value=(1 << size) - 1)) << shift
    with pytest.raises(ProtocolError, match=rf"^(frame|read) {row}\b"):
        decode_data_frames(table, w)


def test_decoder_width_validation():
    table = frame_table(data_frame(np.ones(8)))
    with pytest.raises(WidthTooLarge):
        decode_data_frames(table, 0)
    with pytest.raises(WidthTooLarge):
        decode_data_frames(table, 65)


def test_decoder_names_an_error_frame_mid_window():
    good = data_frame([1, 0, 1, 1])
    table = frame_table(good, good, encode_error(ERR_NO_CHIP), good)
    with pytest.raises(ProtocolError, match=r"read 2 failed: no chip selected"):
        decode_data_frames(table, 4)


def test_decoder_rejects_bad_start_bits():
    good = data_frame([1, 0, 1, 1])
    bad_start = (0b111 << 69 | 0b010 << 2).to_bytes(FRAME_LEN, "big")
    with pytest.raises(ProtocolError, match="bad start bits 111"):
        decode_data_frames(frame_table(good, bad_start), 4)


def test_decoder_rejects_bad_stop_bits():
    good = data_frame([1, 0, 1, 1])
    bad_stop = bytearray(good)
    bad_stop[-1] = 0b00010000  # stop bits 100
    with pytest.raises(ProtocolError, match="malformed stop bits"):
        decode_data_frames(frame_table(good, bytes(bad_stop)), 4)
    bad_pad = bytearray(good)
    bad_pad[-1] |= 0b01
    with pytest.raises(ProtocolError, match="malformed stop bits"):
        decode_data_frames(frame_table(bytes(bad_pad), good), 4)


@given(st.data())
def test_response_round_trip(data):
    w = data.draw(st.integers(min_value=1, max_value=64))
    bits = np.array(
        data.draw(st.lists(st.integers(0, 1), min_size=w, max_size=w)),
        dtype=np.uint8,
    )
    frame = data_frame(bits)
    assert frame == assemble_frame(wire_data_bits(bits))
    assert np.array_equal(words_to_bits(decode_data_frames(frame_table(frame), w), w),
                          [bits])


@pytest.mark.parametrize("depth,w", [(1, 1), (4, 8), (16, 32), (3, 64)])
def test_frames_for_bits_matches_per_word_encoding(depth, w):
    rng = np.random.default_rng(depth * 100 + w)
    bits = rng.integers(0, 2, size=(depth, w)).astype(np.uint8)
    table = frames_for_bits(bits)
    assert table.shape == (depth, FRAME_LEN)
    for addr in range(depth):
        assert table[addr].tobytes() == assemble_frame(wire_data_bits(bits[addr]))
    assert np.array_equal(words_to_bits(decode_data_frames(table, w), w), bits)


def test_frames_for_bits_width_validation():
    with pytest.raises(WidthTooLarge):
        frames_for_bits(np.zeros((2, 65), dtype=np.uint8))
