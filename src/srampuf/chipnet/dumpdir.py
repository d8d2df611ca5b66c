"""On-disk layout of a collection: the only code that names or reads its files.

Dumps carry the collector's own cycle count, and a power-up's dumps are
written together.  ``manifest.txt`` adds a ``server_cycle <chip> <cycle>
<index>`` line for each power-up the server counted under another index.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..biasdetect import InsufficientData
from ..floorplan import format_config, load_config
from ..simchip import DesignEntry, ProcessParams
from .dumpfile import DumpHeader, format_dump, parse_dump, parse_header, words_to_bits

MANIFEST_NAME = "manifest.txt"
FLOORPLAN_NAME = "floorplan.cfg"


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


@dataclass(frozen=True)
class DesignDumps:
    """Locations and shared header geometry of one design's dump files."""

    header: DumpHeader  # chip/cycle fields are not meaningful here
    files: dict  # (chip, cycle) -> Path

    @property
    def cells(self) -> int:
        return self.header.depth * self.header.width


def scan_dump_dir(dump_dir) -> dict[str, DesignDumps]:
    """Index a dump directory by design; validates header consistency."""
    root = Path(dump_dir)
    index: dict[str, DesignDumps] = {}
    for path in sorted(root.glob("*.pufdump"), key=lambda p: p.name):
        with open(path, "r", encoding="utf-8") as fh:
            head = [fh.readline().rstrip("\n") for _ in range(3)]
        header = parse_header(head)
        known = index.setdefault(header.design, DesignDumps(header=header, files={}))
        for field_name in ("depth", "width", "mux", "orient", "speed_class"):
            if getattr(known.header, field_name) != getattr(header, field_name):
                raise InsufficientData(
                    f"{path.name}: {field_name} disagrees with other {header.design} dumps")
        known.files[(header.chip, header.cycle)] = path
    if not index:
        raise InsufficientData(f"no .pufdump files under {root}")
    return index


def grid(index: dict[str, DesignDumps]) -> tuple[list[int], list[int]]:
    """Common (chips, cycles) grid across designs; must be complete."""
    keys = set(next(iter(index.values())).files)
    if any(set(design.files) != keys for design in index.values()):
        raise InsufficientData("designs cover different chip/cycle sets")
    chips = sorted({c for c, _ in keys})
    cycles = sorted({k for _, k in keys})
    if len(keys) != len(chips) * len(cycles):
        raise InsufficientData("chip/cycle grid has holes")
    if len(chips) < 2:
        raise InsufficientData(f"need dumps from >= 2 chips, found {len(chips)}")
    if len(cycles) < 2:
        raise InsufficientData(f"need dumps from >= 2 cycles, found {len(cycles)}")
    if 0 not in cycles:
        raise InsufficientData("no cycle-0 enrollment dumps present")
    return chips, cycles


def load_bits(design: DesignDumps, chips, cycles) -> np.ndarray:
    """(chips, cycles, cells) bit tensor; words_to_bits yields only 0/1."""
    bits = np.empty((len(chips), len(cycles), design.cells), dtype=np.uint8)
    for i, chip in enumerate(chips):
        for j, cycle in enumerate(cycles):
            header, words = parse_dump(design.files[(chip, cycle)].read_bytes())
            bits[i, j] = words_to_bits(words, header.width).reshape(-1)
    return bits


def read_plan(dump_dir) -> tuple[ProcessParams | None, int | None]:
    """Process parameters from ``floorplan.cfg`` and the manifest's seed; None if absent."""
    plan, manifest = Path(dump_dir, FLOORPLAN_NAME), Path(dump_dir, MANIFEST_NAME)
    params = load_config(plan)[0] if plan.exists() else None
    seed = None
    if manifest.exists():
        for line in manifest.read_text(encoding="utf-8").splitlines():
            key, _, value = line.strip().partition(" ")
            if key == "seed":
                seed = int(value)
    return params, seed
