"""Bit-exact wire protocol of the readout harness.

Requests are 16 bits big-endian: bit 15 reserved (zero), bits 14..11 the
PUF select, bits 10..0 the word address.  Every command is answered with
one 70-bit frame serialized into 9 bytes MSB-first:

    101 <data: 64 bits> 010 00

Data frames carry the word in the high-order ``w`` data bits, most
significant word bit first, zero padded below.  Control and error frames
carry a plain big-endian integer in the data field; error frames are
marked by start bits 000 instead of 101.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..layout import AddressOutOfRange

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


class ReservedBitSet(ValueError):
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


def decode_requests(requests: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(select, address) of 16-bit requests; a set reserved bit gives select >= 16."""
    return requests >> 11, requests & MAX_ADDRESS


def decode_request(b: bytes) -> ReadRequest:
    if len(b) != 2:
        raise ProtocolError(f"request must be 2 bytes, got {len(b)}")
    value = int.from_bytes(b, "big")
    if value & 0x8000:
        raise ReservedBitSet(f"reserved bit set in {value:#06x}")
    return ReadRequest(puf_select=value >> 11, address=value & 0x7FF)


@dataclass(frozen=True)
class ResponseFrame:
    start: int
    data: int  # 64-bit field

    @property
    def is_error(self) -> bool:
        return self.start == START_ERROR


def _assemble(start: int, data: int) -> bytes:
    return ((start << 69) | (data << 5) | (STOP_BITS << 2)).to_bytes(FRAME_LEN, "big")


def encode_control(payload: int) -> bytes:
    """Acknowledgement frame carrying an integer (chip id, cycle index)."""
    if not 0 <= payload < 1 << 64:
        raise ProtocolError(f"payload {payload} does not fit the data field")
    return _assemble(START_DATA, payload)


def encode_error(code: int) -> bytes:
    if not 0 <= code < 1 << 64:
        raise ProtocolError(f"error code {code} does not fit the data field")
    return _assemble(START_ERROR, code)


def decode_response(b: bytes) -> ResponseFrame:
    if len(b) != FRAME_LEN:
        raise ProtocolError(f"frame must be {FRAME_LEN} bytes, got {len(b)}")
    value = int.from_bytes(b, "big")
    if value & 0b11:
        raise ProtocolError("nonzero pad bits")
    start = value >> 69
    stop = (value >> 2) & 0b111
    if stop != STOP_BITS:
        raise ProtocolError(f"bad stop bits {stop:03b}")
    if start not in (START_DATA, START_ERROR):
        raise ProtocolError(f"bad start bits {start:03b}")
    return ResponseFrame(start=start, data=(value >> 5) & ((1 << 64) - 1))


def frames_for_bits(bits: np.ndarray) -> np.ndarray:
    """Data frames for a whole (depth, w) bit matrix, one 9-byte row each.

    The only data-frame encoder: the server precomputes this table at
    power-on so reads are array lookups.
    """
    depth, w = bits.shape
    if w > 64:
        raise WidthTooLarge(f"width {w} exceeds the 64-bit data field")
    stream = np.zeros((depth, 72), dtype=np.uint8)
    stream[:, 0] = 1
    stream[:, 2] = 1  # start 101
    stream[:, 3 : 3 + w] = bits[:, ::-1]  # word bit w-1 first on the wire
    stream[:, 68] = 1  # stop 010, then 2 pad zeros
    return np.packbits(stream, axis=1)


def decode_data_frames(frames: np.ndarray, width: int) -> np.ndarray:
    """(n, width) bit matrix of n data frames (an (n, 9) uint8 array).

    Inverse of frames_for_bits; a non-data frame is reported by its index.
    """
    if not 0 < width <= 64:
        raise WidthTooLarge(f"width {width} outside [1, 64]")
    bits = np.unpackbits(frames, axis=1)  # (n, 72)
    good = (bits[:, 0] == 1) & (bits[:, 1] == 0) & (bits[:, 2] == 1)
    if not good.all():
        bad = int(np.flatnonzero(~good)[0])
        frame = decode_response(frames[bad].tobytes())  # raises unless an error frame
        name = ERROR_NAMES.get(frame.data, f"code {frame.data}")
        raise ProtocolError(f"read {bad} failed: {name}")
    stops_ok = (
        (bits[:, 67] == 0) & (bits[:, 68] == 1) & (bits[:, 69] == 0)
        & (bits[:, 70] == 0) & (bits[:, 71] == 0)
    )
    if not stops_ok.all():
        raise ProtocolError("malformed stop bits in a data frame")
    return bits[:, 3 : 3 + width][:, ::-1]
