"""Plain-text power-up dump files.

Format::

    #PUFDUMP v1
    #design P1_a depth=128 width=64 mux=4 orient=R0 class=fast
    #chip 7 cycle 3
    0000: ffa3...
    0001: 0c71...

One body line per address, addresses in order, lowercase hex; the word
field is ceil(w/4) digits wide with bit w-1 as the most significant bit.
"""

from __future__ import annotations

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


def dump_filename(design: str, chip: int, cycle: int) -> str:
    return f"{design}_chip{chip:03d}_cycle{cycle:02d}.pufdump"


def word_hex_width(w: int) -> int:
    return -(-w // 4)


def format_dump(header: DumpHeader, words) -> str:
    arr = np.asarray(words, dtype=np.uint64)
    if arr.size != header.depth:
        raise DumpFormatError(f"{arr.size} words for depth {header.depth}")
    digits = word_hex_width(header.width)
    lines = [
        MAGIC,
        f"#design {header.design} depth={header.depth} width={header.width} "
        f"mux={header.mux} orient={header.orient} class={header.speed_class}",
        f"#chip {header.chip} cycle {header.cycle}",
    ]
    lines.extend(f"{addr:04x}: {int(word):0{digits}x}" for addr, word in enumerate(arr))
    return "\n".join(lines) + "\n"


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


def parse_dump(text: str) -> tuple[DumpHeader, np.ndarray]:
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
    """Word values of a (depth, w) bit matrix; inverse of words_to_bits."""
    mat = np.asarray(bits).astype(np.uint64)
    weights = np.left_shift(np.uint64(1), np.arange(mat.shape[1], dtype=np.uint64))
    return (mat * weights).sum(axis=1, dtype=np.uint64)
