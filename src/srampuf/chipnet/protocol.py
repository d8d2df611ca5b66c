"""Bit-exact wire protocol of the readout harness.

Requests are 16 bits big-endian: bit 15 reserved (zero), bits 14..11 the
PUF select, bits 10..0 the word address.  Every command is answered with
one 70-bit frame serialized into 9 bytes MSB-first:

    101 <data: 64 bits> 010 00

Data frames carry the word in the high-order ``w`` data bits, most
significant word bit first, zero padded below.  Control and error frames
carry a plain big-endian integer in the data field; error frames are
marked by start bits 000 instead of 101.

Only ``_pack_fields`` and ``_split_fields`` know where the frame's fields
sit; single frames pass Python ints through them, frame tables uint64 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..layout import AddressOutOfRange
from .dumpfile import bits_to_words

# Opcodes of the byte-stream session protocol.
OP_SELECT_CHIP = 0x01  # + 1 byte chip id
OP_POWER_OFF = 0x02
OP_POWER_ON = 0x03
OP_READ = 0x04  # + 2 byte read request

# In-band error codes (data field of an error frame).
ERR_UNKNOWN_OPCODE = 1
ERR_NOT_POWERED = 2
ERR_BAD_REQUEST = 3
ERR_CHIP_BUSY = 4
ERR_NO_CHIP = 5

ERROR_NAMES = {
    ERR_UNKNOWN_OPCODE: "unknown opcode",
    ERR_NOT_POWERED: "chip not powered",
    ERR_BAD_REQUEST: "bad read request",
    ERR_CHIP_BUSY: "chip held by another session",
    ERR_NO_CHIP: "no chip selected",
}

FRAME_LEN = 9
START_DATA = 0b101
START_ERROR = 0b000
STOP_BITS = 0b010

MAX_CHIP = 0xFF  # chip ids are one byte
MAX_SELECT = 10
MAX_ADDRESS = 2047


class ProtocolError(ValueError):
    """Malformed frame or out-of-contract response."""


class SelectOutOfRange(ValueError):
    pass


class WidthTooLarge(ValueError):
    pass


@dataclass(frozen=True)
class ReadRequest:
    puf_select: int
    address: int

    def __post_init__(self) -> None:
        if not 0 <= self.puf_select <= MAX_SELECT:
            raise SelectOutOfRange(
                f"select {self.puf_select} outside [0, {MAX_SELECT}]"
            )
        if not 0 <= self.address <= MAX_ADDRESS:
            raise AddressOutOfRange(
                f"address {self.address} outside [0, {MAX_ADDRESS}]"
            )


def check_design(select: int, design) -> None:
    """Reject a design that read requests cannot address or frames cannot carry."""
    g = design.geometry
    if select > MAX_SELECT:
        raise SelectOutOfRange(f"design {design.name!r}: a read request selects "
                               f"at most {MAX_SELECT + 1} designs")
    if g.width > 64:
        raise WidthTooLarge(
            f"design {design.name!r}: width {g.width} exceeds the 64-bit data field")
    if g.depth > MAX_ADDRESS + 1:
        raise AddressOutOfRange(f"design {design.name!r}: depth {g.depth} exceeds "
                                f"the {MAX_ADDRESS + 1} addresses of a read request")


def encode_request(r: ReadRequest) -> bytes:
    return ((r.puf_select << 11) | r.address).to_bytes(2, "big")


READ_COMMAND = np.dtype([("op", "u1"), ("request", ">u2")])


def read_commands(select: int, depth: int) -> bytes:
    """OP_READ commands for addresses 0 .. depth-1 of one design, as one blob."""
    ReadRequest(select, depth - 1)
    commands = np.empty(depth, dtype=READ_COMMAND)
    commands["op"] = OP_READ
    commands["request"] = (select << 11) | np.arange(depth)
    return commands.tobytes()


def power_up_request(depths) -> bytes:
    """One power-up as one blob: OP_POWER_ON, every address of each design, OP_POWER_OFF.

    ``depths[s]`` is the depth of the design at select s.  The reply is
    ``sum(depths) + 2`` frames: the power-on acknowledgement (the cycle
    index), the data frames in request order and the power-off one.
    """
    reads = [read_commands(select, depth) for select, depth in enumerate(depths)]
    return b"".join([bytes([OP_POWER_ON]), *reads, bytes([OP_POWER_OFF])])


def decode_requests(requests):
    """(select, address) of an int or array of requests; a reserved bit gives select >= 16."""
    return requests >> 11, requests & MAX_ADDRESS


@dataclass(frozen=True)
class ResponseFrame:
    start: int
    data: int  # 64-bit field

    @property
    def is_error(self) -> bool:
        return self.start == START_ERROR


# The frame as bytes 0-7 (start bits, then the top 61 data bits), big-endian,
# and byte 8 (the low 3 data bits, stop bits, pad).
_FRAME = np.dtype([("head", ">u8"), ("last", "u1")])
_TAIL = STOP_BITS << 2  # stop bits and zero pad, the low 5 bits of byte 8


def _pack_fields(start, data):
    """(head, last) of frames with these start bits and 64-bit data fields."""
    return start << 61 | data >> 3, (data & 0b111) << 5 | _TAIL


def _split_fields(head, last):
    """(start, data, stop and pad bits) of frames; inverse of _pack_fields."""
    return head >> 61, (head & (1 << 61) - 1) << 3 | last >> 5, last & 0b11111


def encode_control(payload: int) -> bytes:
    """Acknowledgement frame carrying an integer (chip id, cycle index)."""
    if not 0 <= payload < 1 << 64:
        raise ProtocolError(f"payload {payload} does not fit the data field")
    head, last = _pack_fields(START_DATA, payload)
    return (head << 8 | last).to_bytes(FRAME_LEN, "big")


def encode_error(code: int) -> bytes:
    if not 0 <= code < 1 << 64:
        raise ProtocolError(f"error code {code} does not fit the data field")
    head, last = _pack_fields(START_ERROR, code)
    return (head << 8 | last).to_bytes(FRAME_LEN, "big")


def decode_response(b: bytes) -> ResponseFrame:
    if len(b) != FRAME_LEN:
        raise ProtocolError(f"frame must be {FRAME_LEN} bytes, got {len(b)}")
    value = int.from_bytes(b, "big")
    start, data, tail = _split_fields(value >> 8, value & 0xFF)
    if tail != _TAIL:
        raise ProtocolError(f"malformed stop bits {tail >> 2:03b}, pad {tail & 0b11:02b}")
    if start not in (START_DATA, START_ERROR):
        raise ProtocolError(f"bad start bits {start:03b}")
    return ResponseFrame(start=start, data=data)


def frames_for_bits(bits: np.ndarray) -> np.ndarray:
    """Data frames for a whole (depth, w) bit matrix, one 9-byte row each.

    The word sits in the high-order w bits of the data field.  The server
    precomputes this table at power-on so reads are array lookups.
    """
    depth, w = bits.shape
    if w > 64:
        raise WidthTooLarge(f"width {w} exceeds the 64-bit data field")
    frames = np.empty(depth, dtype=_FRAME)
    frames["head"], frames["last"] = _pack_fields(
        START_DATA, bits_to_words(bits) << np.uint64(64 - w))
    return frames.view(np.uint8).reshape(depth, FRAME_LEN)


def decode_data_frames(frames, width: int) -> np.ndarray:
    """uint64 words of data frames: bytes, or an (n, 9) uint8 array.

    Inverse of frames_for_bits.  Each frame gets decode_response's checks; the
    first that is not a data frame is reported by its index.
    """
    if not 0 < width <= 64:
        raise WidthTooLarge(f"width {width} outside [1, 64]")
    rows = np.frombuffer(frames, dtype=_FRAME)
    start, data, tail = _split_fields(rows["head"], rows["last"])
    bad = (start != START_DATA) | (tail != _TAIL)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        try:
            frame = decode_response(rows[i : i + 1].tobytes())
        except ProtocolError as e:
            raise ProtocolError(f"frame {i}: {e}") from None
        name = ERROR_NAMES.get(frame.data, f"code {frame.data}")
        raise ProtocolError(f"read {i} failed: {name}")
    return data >> np.uint64(64 - width)
