"""Plain-text power-up dump files.

Format::

    #PUFDUMP v1
    #design P1_a depth=128 width=64 mux=4 orient=R0 class=fast
    #chip 7 cycle 3
    0000: ffa3...
    0001: 0c71...

One body line per address, addresses in order, lowercase hex; the word
field is ceil(w/4) digits wide with bit w-1 as the most significant bit.
Widths run 1-64 and depths 1-65,536 (addresses are four hex digits); the
writer and the header parser both refuse any other geometry.

``format_dump`` is the format.  The parser's fast path decodes the digit
columns at their fixed offsets and keeps the result only when
``format_dump`` writes the input back byte for byte.  Everything else goes
to a line-by-line regex loop, which also accepts CRLF line ends and a
missing final newline, and names the first bad line in its error.
"""

from __future__ import annotations

import binascii
import re
from dataclasses import dataclass

import numpy as np

MAGIC = "#PUFDUMP v1"

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


def _check_geometry(header: DumpHeader) -> DumpHeader:
    """``header`` if a dump can hold its design: width 1-64, depth 1-65,536."""
    if not 1 <= header.width <= 64:
        raise DumpFormatError(f"width {header.width} is outside 1-64")
    if not 1 <= header.depth <= 0x10000:
        raise DumpFormatError(f"depth {header.depth} is outside 1-65536")
    return header


def _hex_digits(values: np.ndarray) -> np.ndarray:
    """Lowercase hex digits of big-endian ``values``, one row per value."""
    digits = np.frombuffer(binascii.hexlify(values.tobytes()), dtype=np.uint8)
    return digits.reshape(values.size, -1)


def format_dump(header: DumpHeader, words) -> str:
    _check_geometry(header)
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
    digits = word_hex_width(header.width)
    body = np.full((arr.size, digits + 7), ord(" "), dtype=np.uint8)
    body[:, :4] = _hex_digits(np.arange(arr.size, dtype=">u2"))
    body[:, 4] = ord(":")
    body[:, 6:-1] = _hex_digits(arr.astype(">u8"))[:, 16 - digits:]
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
    return _check_geometry(DumpHeader(
        design=name,
        depth=int(depth),
        width=int(width),
        mux=int(mux),
        orient=orient,
        speed_class=speed,
        chip=int(m2.group(1)),
        cycle=int(m2.group(2)),
    ))


def parse_dump(data: str | bytes) -> tuple[DumpHeader, np.ndarray]:
    """Header and word values of a dump given as text or as UTF-8 bytes."""
    raw = data.encode("utf-8") if isinstance(data, str) else data
    return _parse_fixed_width(raw) or _parse_lines(raw.decode("utf-8"))


def _parse_fixed_width(raw: bytes) -> tuple[DumpHeader, np.ndarray] | None:
    """Header and words if format_dump writes ``raw`` back byte for byte, else None."""
    parts = raw.split(b"\n", 3)
    if len(parts) < 4:
        return None
    try:
        header = parse_header([part.decode("ascii") for part in parts[:3]])
        digits = word_hex_width(header.width)
        body = np.frombuffer(parts[3], dtype=np.uint8)
        if body.size != header.depth * (digits + 7):
            return None
        # Left-pad each word to 16 digits, then read it as a big-endian uint64.
        padded = np.full((header.depth, 16), ord("0"), dtype=np.uint8)
        padded[:, 16 - digits:] = body.reshape(header.depth, digits + 7)[:, 6:-1]
        words = np.frombuffer(binascii.unhexlify(padded.tobytes()), dtype=">u8").astype(np.uint64)
        if format_dump(header, words).encode("ascii") == raw:
            return header, words
    except (UnicodeDecodeError, binascii.Error, DumpFormatError):
        pass
    return None


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
