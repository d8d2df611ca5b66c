"""On-disk layout of a collection: the only code that names or reads its files.

Dumps carry the collector's own cycle count, and a power-up's dumps are
written together.  ``manifest.txt`` adds a ``server_cycle <chip> <cycle>
<index>`` line for each power-up the server counted under another index.

The reader lists the directory once, finds dumps by the names ``dump_filename``
gives and refuses any other ``.pufdump`` name.  It checks each dump's header
against its name and the design's first dump.  A design's dumps are read once,
by name in one open directory, each body into its slot of one buffer, and
decode as one stack, or, if any is not the writer's bytes, are read again and
decode one by one to name the first bad one; a FIFO or other file that is not
regular is refused by name.  They stay packed, as ``decode_dump`` gives them.
"""

from __future__ import annotations

import itertools
import os
import re
import stat
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from ..biasdetect import InsufficientData
from ..floorplan import format_config, parse_config
from ..simchip import DesignEntry, ProcessParams
from .dumpfile import (DumpFormatError, DumpHeader, chip_line, decode_bodies, decode_dump,
                       format_dump, header_text, written_header)

MANIFEST_NAME = "manifest.txt"
FLOORPLAN_NAME = "floorplan.cfg"
# The names dump_filename writes: chip and cycle padded to 3 and 2 digits, no more.
_DUMP_RE = re.compile(r"(.+?)_chip(\d{3}|[1-9]\d{3,})_cycle(\d{2}|[1-9]\d{2,})\.pufdump", re.A)
_NAMED = ("design", "chip", "cycle")


def dump_filename(design: str, chip: int, cycle: int) -> str:
    return f"{design}_chip{chip:03d}_cycle{cycle:02d}.pufdump"


def write_cycle(out: Path, chip: int, cycle: int, designs: tuple[DesignEntry, ...],
                words) -> list[Path]:
    """Dumps of one complete power-up; ``words[i]`` holds design i's words."""
    paths = []
    for entry, values in zip(designs, words, strict=True):
        g = entry.geometry
        header = DumpHeader(entry.name, g.depth, g.width, g.mux, entry.orientation.value,
                            g.speed_class, chip, cycle)
        path = out / dump_filename(entry.name, chip, cycle)
        path.write_text(format_dump(header, values), encoding="utf-8")
        paths.append(path)
    return paths


def write_manifest(out: Path, chips: int, cycles: int, designs: tuple[DesignEntry, ...],
                   params: ProcessParams, seed: int | None, server_cycles) -> None:
    """``manifest.txt`` and ``floorplan.cfg``; ``server_cycles`` holds (chip, cycle, index)."""
    total_bits = chips * cycles * sum(d.geometry.cells for d in designs)
    manifest = [
        "# collection manifest",
        *([f"seed {seed}"] if seed is not None else []),
        f"chips {chips}",
        f"cycles {cycles}",
        f"designs {len(designs)}",
        f"total_bits {total_bits}",
        *(f"server_cycle {chip} {cycle} {index}" for chip, cycle, index in server_cycles),
    ]
    (out / MANIFEST_NAME).write_text("\n".join(manifest) + "\n", encoding="utf-8")
    (out / FLOORPLAN_NAME).write_text(format_config(params, designs), encoding="utf-8")


@contextmanager
def _named(path: Path, error=DumpFormatError):
    """Re-raise a format or encoding error in ``path`` as ``error``, naming the file."""
    try:
        yield
    except ValueError as e:  # DumpFormatError, UnicodeDecodeError, ConfigError
        raise error(f"{path.name}: {e}") from e


def scan_dump_dir(dump_dir) -> dict[str, dict[tuple[int, int], str]]:
    """{design: {(chip, cycle): file name}} of the names dump_filename gives; opens no dump."""
    root = Path(dump_dir)
    try:
        names = [name for name in os.listdir(root) if name.endswith(".pufdump")]
    except (FileNotFoundError, NotADirectoryError) as e:
        reason = "not a directory" if isinstance(e, NotADirectoryError) else "no such directory"
        raise InsufficientData(f"{root}: {reason}") from e
    index: dict[str, dict[tuple[int, int], str]] = {}
    for name in names:
        if not (m := _DUMP_RE.fullmatch(name)):
            bad = min(other for other in names if not _DUMP_RE.fullmatch(other))
            raise InsufficientData(f"{bad}: not a dump name; the collector writes "
                                   f"names like {dump_filename('P1_a', 7, 3)}")
        index.setdefault(m[1], {})[int(m[2]), int(m[3])] = name
    if not index:
        raise InsufficientData(f"no .pufdump files under {root}")
    return index


def grid(index: dict[str, dict]) -> tuple[list[int], list[int]]:
    """(chips, cycles) seen in any design; every design needs every pair."""
    chips = sorted({c for files in index.values() for c, _ in files})
    cycles = sorted({k for files in index.values() for _, k in files})
    for design in sorted(index):
        for key in itertools.product(chips, cycles):
            if key not in index[design]:
                raise InsufficientData(f"{dump_filename(design, *key)}: missing, though "
                                       f"other dumps cover chip {key[0]} and cycle {key[1]}")
    if len(chips) < 2:
        raise InsufficientData(f"need dumps from >= 2 chips, found {len(chips)}")
    if len(cycles) < 2:
        raise InsufficientData(f"need dumps from >= 2 cycles, found {len(cycles)}")
    if 0 not in cycles:
        raise InsufficientData("no cycle-0 enrollment dumps present")
    return chips, cycles


def load_bits(dump_dir, design: str, files: dict, chips, cycles) -> tuple[DumpHeader, np.ndarray]:
    """First header and the packed readings of the dumps ``files`` names in ``dump_dir``.

    A reading is its words' big-endian bytes in address order, as ``decode_dump``
    gives them, bits past the width zero: (chips, cycles, depth * ceil(width/8))
    uint8, one bit per bit.  Dumps that are the writer's bytes for their names
    are read once, each body straight into its slot of one buffer, and decode
    as one stack.  Else every dump is read again in grid order, and
    ``decode_dump`` decodes it or the first error is raised.
    """
    keys = list(itertools.product(chips, cycles))
    with suppress(OSError):  # the file-by-file pass raises it in its turn
        if (stack := _read_bodies(dump_dir, design, files, keys)) is not None:
            if (octets := decode_bodies(*stack, len(keys))) is not None:
                return stack[0], octets.reshape(len(chips), len(cycles), -1)
    first, readings = None, []
    for chip, cycle in keys:
        with _named(path := Path(dump_dir, files[(chip, cycle)])):
            header, octets = decode_dump(_read_regular(path))
        got = vars(header)  # field name -> value, in field order
        expected = {**vars(first or header), "design": design, "chip": chip, "cycle": cycle}
        if got != expected:
            name = next(key for key in got if got[key] != expected[key])
            source = "its file name" if name in _NAMED else f"other {design} dumps"
            raise InsufficientData(f"{path.name}: {name} disagrees with {source}")
        first = first or header
        readings.append(octets)
    return first, np.stack(readings).reshape(len(chips), len(cycles), -1)


def _read_bodies(dump_dir, design: str, files: dict,
                 keys: list) -> tuple[DumpHeader, bytearray] | None:
    """First header and the dumps' bodies end to end, one read per dump by name in one open
    directory, if every header is the writer's for its name and every body the first's length."""
    spare = bytearray(1)  # a read that reaches it ran past the expected end

    def fills(key, *buffers) -> bool:
        """Whether one ``readv`` of ``key``'s dump fills ``buffers`` and not ``spare``."""
        fd = os.open(files[key], os.O_RDONLY | os.O_NONBLOCK, dir_fd=directory)
        try:
            return os.readv(fd, [*buffers, spare]) == sum(map(len, buffers))
        finally:
            os.close(fd)

    directory = os.open(dump_dir, os.O_RDONLY)
    try:
        raw = bytearray(os.stat(files[keys[0]], dir_fd=directory).st_size)
        first = written_header(raw) if fills(keys[0], raw) else None
        if first is None or (first.design, first.chip, first.cycle) != (design, *keys[0]):
            return None
        written = header_text(first).encode()
        prefix, size = written.removesuffix(chip_line(*keys[0]).encode()), len(raw) - len(written)
        # The other dumps' headers as the writer writes them, end to end: one slot each.
        expected = [prefix + chip_line(*key).encode() for key in keys[1:]]
        ends = list(itertools.accumulate(map(len, expected), initial=0))
        heads, joined = bytearray(ends[-1]), bytearray(size * len(keys))
        joined[:size] = memoryview(raw)[len(written):]
        with memoryview(heads) as head, memoryview(joined) as body:
            # A body of another length could start the next dump's lines.
            if not all(fills(key, head[ends[n - 1]:ends[n]], body[n * size:(n + 1) * size])
                       for n, key in enumerate(keys[1:], 1)):
                return None
        return (first, joined) if heads == b"".join(expected) else None
    finally:
        os.close(directory)


def _read_regular(path: Path) -> bytes:
    """The bytes of ``path``, opened without blocking; ValueError if not a regular file."""
    with open(path, "rb", opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK)) as fh:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            raise ValueError("not a regular file")
        return fh.read()


def read_plan(dump_dir) -> tuple[ProcessParams | None, int | None]:
    """Process parameters from ``floorplan.cfg`` and the manifest's seed; None if absent."""
    plan, manifest = Path(dump_dir, FLOORPLAN_NAME), Path(dump_dir, MANIFEST_NAME)
    with _named(plan, ValueError):
        params = parse_config(_read_regular(plan).decode("utf-8"))[0] if plan.exists() else None
    seed = None
    if manifest.exists():
        with _named(manifest, ValueError):
            for line in _read_regular(manifest).decode("utf-8").splitlines():
                key, _, value = line.strip().partition(" ")
                if key == "seed":
                    seed = int(value)
    return params, seed
