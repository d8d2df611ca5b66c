"""Plain-text power-up dump files.

Format::

    #PUFDUMP v1
    #design P1_a depth=128 width=64 mux=4 orient=R0 class=fast
    #chip 7 cycle 3
    0000: ffa3...
    0001: 0c71...

One body line per address, addresses in order, lowercase hex; the word
field is ceil(w/4) digits wide with bit w-1 as the most significant bit.
Body lines are therefore fixed width, so both the writer and the parser
treat the body as one ``(depth, digits + 7)`` byte array.  The parser
falls back to a line-by-line regex loop whenever that view does not fit,
which is also what names the first bad line in its error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

MAGIC = "#PUFDUMP v1"
_HEX = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
# Byte -> nibble value; any byte that is not lowercase hex maps to 0xFF.
_NIBBLE = np.full(256, 0xFF, dtype=np.uint8)
_NIBBLE[_HEX] = np.arange(16, dtype=np.uint8)

_DESIGN_RE = re.compile(
    r"#design (\S+) depth=(\d+) width=(\d+) mux=(\d+) orient=(\S+) class=(fast|slow)$"
)
_CHIP_RE = re.compile(r"#chip (\d+) cycle (\d+)$")
_BODY_RE = re.compile(r"([0-9a-f]{4}): ([0-9a-f]+)$")


class DumpFormatError(ValueError):
    pass


@dataclass(frozen=True)
class DumpHeader:
    design: str
    depth: int
    width: int
    mux: int
    orient: str
    speed_class: str
    chip: int
    cycle: int


def __getattr__(name: str):  # dump_filename lives in dumpdir, with the directory layout
    if name == "dump_filename":
        from .dumpdir import dump_filename
        return dump_filename
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def word_hex_width(w: int) -> int:
    return -(-w // 4)


def format_dump(header: DumpHeader, words) -> str:
    arr = np.asarray(words, dtype=np.uint64)
    if arr.size != header.depth:
        raise DumpFormatError(f"{arr.size} words for depth {header.depth}")
    if header.width < 64 and (arr >> np.uint64(header.width)).any():
        raise DumpFormatError(f"a word is wider than {header.width} bits")
    lines = [
        MAGIC,
        f"#design {header.design} depth={header.depth} width={header.width} "
        f"mux={header.mux} orient={header.orient} class={header.speed_class}",
        f"#chip {header.chip} cycle {header.cycle}",
    ]
    # Body lines are fixed width, "aaaa: hhhh\n", so the body is one byte array.
    shifts = np.arange(4 * word_hex_width(header.width) - 4, -1, -4, dtype=np.uint64)
    body = np.full((arr.size, shifts.size + 7), ord(" "), dtype=np.uint8)
    body[:, :4] = _HEX[(np.arange(arr.size)[:, np.newaxis] >> [12, 8, 4, 0]) & 0xF]
    body[:, 4] = ord(":")
    body[:, 6:-1] = _HEX[(arr[:, np.newaxis] >> shifts) & np.uint64(0xF)]
    body[:, -1] = ord("\n")
    return "\n".join(lines) + "\n" + body.tobytes().decode("ascii")


def parse_header(lines: list[str]) -> DumpHeader:
    if len(lines) < 3 or lines[0] != MAGIC:
        raise DumpFormatError("missing #PUFDUMP v1 magic")
    m = _DESIGN_RE.match(lines[1])
    if not m:
        raise DumpFormatError(f"bad design line: {lines[1]!r}")
    name, depth, width, mux, orient, speed = m.groups()
    m2 = _CHIP_RE.match(lines[2])
    if not m2:
        raise DumpFormatError(f"bad chip line: {lines[2]!r}")
    return DumpHeader(
        design=name,
        depth=int(depth),
        width=int(width),
        mux=int(mux),
        orient=orient,
        speed_class=speed,
        chip=int(m2.group(1)),
        cycle=int(m2.group(2)),
    )


def parse_dump(data: str | bytes) -> tuple[DumpHeader, np.ndarray]:
    """Header and word values of a dump given as text or as UTF-8 bytes."""
    parsed = _parse_fixed_width(data.encode("utf-8") if isinstance(data, str) else data)
    if parsed is not None:
        return parsed
    return _parse_lines(data if isinstance(data, str) else data.decode("utf-8"))


def _parse_fixed_width(raw: bytes) -> tuple[DumpHeader, np.ndarray] | None:
    """The body as one byte array; None if any line breaks the fixed layout.

    A bad header raises here just as in the line loop: both parse the same
    three lines.
    """
    parts = raw.split(b"\n", 3)
    if len(parts) < 4:
        return None
    try:
        lines = [part.decode("ascii") for part in parts[:3]]
    except UnicodeDecodeError:
        return None
    if "\n".join(lines).splitlines() != lines:  # another line break in the header
        return None
    header = parse_header(lines)
    digits = word_hex_width(header.width)
    body = np.frombuffer(parts[3], dtype=np.uint8)
    if not 0 < digits <= 16 or body.size != header.depth * (digits + 7):
        return None
    body = body.reshape(header.depth, digits + 7)
    nibbles = _NIBBLE[body]
    if (
        (nibbles[:, :4] > 15).any()
        or (nibbles[:, 6:-1] > 15).any()
        or (body[:, 4] != ord(":")).any()
        or (body[:, 5] != ord(" ")).any()
        or (body[:, -1] != ord("\n")).any()
    ):
        return None
    address = nibbles[:, :4].astype(np.int64) @ np.array([4096, 256, 16, 1])
    if (address != np.arange(header.depth)).any():
        return None
    # Left-pad the digits to 16 nibbles, pair them into bytes, read big-endian.
    padded = np.zeros((header.depth, 16), dtype=np.uint8)
    padded[:, 16 - digits :] = nibbles[:, 6:-1]
    packed = (padded[:, 0::2] << 4) | padded[:, 1::2]
    words = packed.view(">u8").reshape(-1).astype(np.uint64)
    if header.width < 64 and (words >> np.uint64(header.width)).any():
        return None
    return header, words


def _parse_lines(text: str) -> tuple[DumpHeader, np.ndarray]:
    """One regex per body line; raises DumpFormatError naming the bad line."""
    lines = text.splitlines()
    header = parse_header(lines[:3])
    body = lines[3:]
    if len(body) != header.depth:
        raise DumpFormatError(f"{len(body)} body lines for depth {header.depth}")
    digits = word_hex_width(header.width)
    words = np.zeros(header.depth, dtype=np.uint64)
    for addr, line in enumerate(body):
        m3 = _BODY_RE.match(line)
        if not m3 or len(m3.group(2)) != digits:
            raise DumpFormatError(f"bad body line {addr}: {line!r}")
        if int(m3.group(1), 16) != addr:
            raise DumpFormatError(f"address {m3.group(1)} out of order at line {addr}")
        value = int(m3.group(2), 16)
        if header.width < 64 and value >> header.width:
            raise DumpFormatError(f"word {m3.group(2)} wider than {header.width} bits")
        words[addr] = value
    return header, words


def words_to_bits(words, w: int) -> np.ndarray:
    """(depth, w) bit matrix from word values; bit b of the word in column b."""
    arr = np.asarray(words, dtype=np.uint64)
    shifts = np.arange(w, dtype=np.uint64)
    return ((arr[:, np.newaxis] >> shifts) & np.uint64(1)).astype(np.uint8)


def bits_to_words(bits) -> np.ndarray:
    """Word values of a (depth, w) bit matrix, w <= 64; inverse of words_to_bits."""
    mat = np.asarray(bits, dtype=np.uint8)
    packed = np.zeros((mat.shape[0], 8), dtype=np.uint8)  # little-endian words
    packed[:, : -(-mat.shape[1] // 8)] = np.packbits(mat, axis=1, bitorder="little")
    return packed.view("<u8").reshape(-1).astype(np.uint64, copy=False)
