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

``format_dump`` is the format, and the only one read.  ``decode_dump``
gives each word's big-endian bytes, bits past the width zero: the packed
form analysis counts on, which ``parse_dump`` views as words.  Its decoder,
``decode_bodies``, decodes in place one buffer of one or many bodies laid
end to end, and refuses any dump not byte for byte what ``format_dump``
writes; the error then names the dump's first bad line.
"""

from __future__ import annotations

import binascii
import functools
import re
from dataclasses import dataclass

import numpy as np

MAGIC = "#PUFDUMP v1"

_DESIGN_RE = re.compile(
    r"#design (\S+) depth=(\d+) width=(\d+) mux=(\d+) orient=(\S+) class=(fast|slow)$"
)
_CHIP_RE = re.compile(r"#chip (\d+) cycle (\d+)$")
_HEX = "0123456789abcdef"


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


def word_byte_width(w: int) -> int:
    return -(-w // 8)


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


def header_text(header: DumpHeader) -> str:
    """The three header lines ``format_dump`` writes, each ending in a newline."""
    return (f"{MAGIC}\n#design {header.design} depth={header.depth} width={header.width} "
            f"mux={header.mux} orient={header.orient} class={header.speed_class}\n"
            + chip_line(header.chip, header.cycle))


def chip_line(chip: int, cycle: int) -> str:
    """The last header line, the only one that differs between a design's dumps."""
    return f"#chip {chip} cycle {cycle}\n"


@functools.lru_cache(maxsize=8)
def _blank_body(depth: int, digits: int) -> bytes:
    """Body lines ``aaaa: 00...`` and a newline for ``depth`` words of ``digits`` digits."""
    body = np.full((depth, digits + 7), ord("0"), dtype=np.uint8)
    body[:, :4] = _hex_digits(np.arange(depth, dtype=">u2"))
    body[:, 4:6] = (ord(":"), ord(" "))
    body[:, -1] = ord("\n")
    return body.tobytes()


def format_dump(header: DumpHeader, words) -> str:
    _check_geometry(header)
    arr = np.asarray(words, dtype=np.uint64)
    if arr.size != header.depth:
        raise DumpFormatError(f"{arr.size} words for depth {header.depth}")
    if header.width < 64 and (arr >> np.uint64(header.width)).any():
        raise DumpFormatError(f"a word is wider than {header.width} bits")
    # Body lines are fixed width, so the body is the blank one with the digits filled in.
    digits = word_hex_width(header.width)
    body = np.frombuffer(bytearray(_blank_body(arr.size, digits)), np.uint8).reshape(arr.size, -1)
    body[:, 6:-1] = _hex_digits(arr.astype(">u8"))[:, 16 - digits:]
    return header_text(header) + body.tobytes().decode("ascii")


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
    header, octets = decode_dump(data.encode("utf-8") if isinstance(data, str) else data)
    words = np.pad(octets, ((0, 0), (8 - octets.shape[1], 0))).view(">u8").reshape(-1)
    return header, words.astype(np.uint64)


def decode_dump(raw: bytes) -> tuple[DumpHeader, np.ndarray]:
    """Header and the big-endian bytes of each word, shaped (depth, ceil(width/8))."""
    if (header := written_header(raw)) is not None:
        body = bytearray(memoryview(raw)[len(header_text(header).encode()):])
        if (octets := decode_bodies(header, body, 1)) is not None:
            return header, octets
    raise DumpFormatError(_first_bad_line(raw.decode("utf-8")))


def written_header(raw: bytes) -> DumpHeader | None:
    """Header of ``raw`` if its first lines are the ones ``format_dump`` writes for it."""
    try:
        header = parse_header([line.decode("utf-8") for line in raw.split(b"\n", 3)[:3]])
    except ValueError:  # not UTF-8, or not a header
        return None
    return header if raw.startswith(header_text(header).encode()) else None


def decode_bodies(header: DumpHeader, joined: bytearray, count: int) -> np.ndarray | None:
    """Big-endian bytes of every word of the ``count`` bodies laid end to end in
    ``joined``, shaped (count * depth, ceil(width/8)), if each is the body
    ``format_dump`` writes for ``header``, else None.  Decodes in place: the
    digits in ``joined`` are overwritten."""
    digits, size = word_hex_width(header.width), word_byte_width(header.width)
    blank = _blank_body(header.depth, digits)
    if len(joined) != count * len(blank):
        return None
    # Each line's digits, one fixed-width field, copy left-padded to whole bytes, then
    # take one body's zeros (faster than a broadcast): what is left must be the blank body.
    field = np.ndarray(count * header.depth, f"S{digits}", joined, 6, (digits + 7,))
    padded = np.full((field.size, 2 * size), ord("0"), dtype=np.uint8)
    np.ndarray(field.size, f"S{digits}", padded, 2 * size - digits, (2 * size,))[...] = field
    field.reshape(count, -1)[...] = np.full(header.depth, b"0" * digits)
    if not all(joined.startswith(blank, start) for start in range(0, len(joined), len(blank))):
        return None
    # unhexlify also takes A-F; of the hex digits only those lack bit 0x20.
    if not np.bitwise_and.reduce(padded, axis=None) & 0x20:
        return None
    try:
        packed = binascii.unhexlify(padded)
    except binascii.Error:  # a non-hex digit
        return None
    octets = np.frombuffer(packed, dtype=np.uint8).reshape(-1, size)
    if header.width % 8 and (octets[:, 0] >> header.width % 8).any():
        return None
    return octets


def _first_bad_line(text: str) -> str:
    """Why ``decode_dump`` refused ``text``: split at any line end, its first bad line by
    content, else its first line whose header numbers or line end the writer would not write."""
    lines = text.splitlines()
    header = parse_header(lines[:3])
    if len(lines) - 3 != header.depth:
        return f"{len(lines) - 3} body lines for depth {header.depth}"
    digits = word_hex_width(header.width)
    for addr, line in enumerate(lines[3:]):
        if len(line) != digits + 6 or line[4:6] != ": " or (line[:4] + line[6:]).strip(_HEX):
            return f"bad body line {addr}: {line!r}"
        if int(line[:4], 16) != addr:
            return f"address {line[:4]} out of order at line {addr}"
        if int(line[6:], 16) >> header.width:
            return f"word {line[6:]} wider than {header.width} bits"
    written = header_text(header).splitlines(True) + [line + "\n" for line in lines[3:]]
    return next(f"line {n} is {got!r}, not {want!r}" for n, (got, want)
                in enumerate(zip(text.splitlines(True), written), 1) if got != want)


def words_to_bits(words, w: int) -> np.ndarray:
    """(depth, w) bit matrix from word values; bit b of the word in column b."""
    arr = np.asarray(words, dtype=np.uint64)
    shifts = np.arange(w, dtype=np.uint64)
    return ((arr[:, np.newaxis] >> shifts) & np.uint64(1)).astype(np.uint8)


def words_to_octets(words, w: int) -> np.ndarray:
    """(depth, ceil(w/8)) big-endian bytes of word values, as ``decode_dump`` gives them."""
    octets = np.asarray(words, dtype=np.uint64).astype(">u8").view(np.uint8).reshape(-1, 8)
    return octets[:, 8 - word_byte_width(w):]


def bits_to_words(bits) -> np.ndarray:
    """Word values of a (depth, w) bit matrix, w <= 64; inverse of words_to_bits."""
    mat = np.asarray(bits, dtype=np.uint8)
    packed = np.zeros((mat.shape[0], 8), dtype=np.uint8)  # little-endian words
    packed[:, :word_byte_width(mat.shape[1])] = np.packbits(mat, axis=1, bitorder="little")
    return packed.view("<u8").reshape(-1).astype(np.uint64, copy=False)
