"""Behavioral model of the simulated test chips.

A bitcell powers up to 1 when its static threshold mismatch, plus a small
layout-correlated imprint shift, plus fresh per-cycle noise lands above
zero:

    bit(addr, b) = [ latent[addr * width + b] + n > 0 ]
    latent = mismatch + imprint

``mismatch`` is frozen per chip at fabrication; ``imprint`` follows the
design's run-length pattern along the serial readout order, scaled by beta
and by the orientation sign — the projection of the die-level doping
gradient onto the macro's local column axis.  Mirrored or counter-rotated
placements see the gradient from the other side, which flips the imprint.
A device keeps only their sum, and every chip of a design shares one
read-only imprint.

All randomness is drawn from streams keyed by hashed seed paths, so equal
seeds give bit-identical devices and snapshots in any evaluation order.
"""

from __future__ import annotations

import functools
import hashlib
import math
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .layout import Geometry, Orientation, apply_orientation
from .patterns import parse_run_length

DEFAULT_SIGMA_MISMATCH = 1.0
DEFAULT_BETA = 0.06
# calibrate_noise(0.065, ProcessParams(), <P2_a>, budget=90): reconstruction
# flips land at ~6.3% of bits per cycle, inside the calibration tolerance.
DEFAULT_SIGMA_NOISE = 0.140625
DEFAULT_GRADIENT = (1.0, 1.0)


class DegenerateGradient(ValueError):
    """Gradient is perpendicular to the placed macro's column axis."""


def derive_seed(*parts: object) -> int:
    """Collision-resistant 64-bit seed from a path of labels."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class ProcessParams:
    sigma_mismatch: float = DEFAULT_SIGMA_MISMATCH
    sigma_noise: float = DEFAULT_SIGMA_NOISE
    beta: float = DEFAULT_BETA
    gradient: tuple[float, float] = DEFAULT_GRADIENT

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not all(map(math.isfinite, value if name == "gradient" else (value,))):
                raise ValueError(f"{name} {value!r} is not finite")
        if self.sigma_mismatch <= 0:
            raise ValueError("sigma_mismatch must be positive")
        if self.sigma_noise < 0:
            raise ValueError("sigma_noise must be non-negative")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")


@dataclass(frozen=True)
class DesignEntry:
    """One named macro: its shape, placement orientation and imprint pattern.

    ``origin`` is kept in the floorplan file but affects no bit.
    """

    name: str
    geometry: Geometry
    orientation: Orientation
    pattern: str
    origin: tuple[int, int] = (0, 0)


def orientation_sign(params: ProcessParams, o: Orientation) -> int:
    """Sign of the gradient component along the placed macro's column axis."""
    ax, ay = apply_orientation(o, (1, 0))
    dot = params.gradient[0] * ax + params.gradient[1] * ay
    if dot == 0:
        raise DegenerateGradient(
            f"gradient {params.gradient} has no component along {o.value} columns"
        )
    return 1 if dot > 0 else -1


@dataclass(frozen=True)
class Snapshot:
    """Power-up state of one device: a depth x width bit matrix."""

    bits: np.ndarray

    def readout(self) -> np.ndarray:
        """Bits concatenated in serial readout order (addr-major)."""
        return self.bits.reshape(-1)


@functools.lru_cache(maxsize=16)  # > the 11 designs a served floorplan holds
def _imprint(pattern: str, cells: int, scale: float) -> np.ndarray:
    """Read-only ``scale`` * pattern signs; one array serves every chip of a design."""
    imprint = scale * parse_run_length(pattern).signs(cells)
    imprint.flags.writeable = False
    return imprint


def sample_device(entry: DesignEntry, params: ProcessParams, chip_seed: int) -> np.ndarray:
    """One chip's device of a design: (cells,) mismatch + imprint, from a keyed stream."""
    scale = orientation_sign(params, entry.orientation) * params.beta
    rng = np.random.default_rng(derive_seed(chip_seed, "mismatch", entry.name))
    latent = rng.standard_normal(entry.geometry.cells)  # the (depth, width) draws in C order
    latent *= params.sigma_mismatch
    latent += _imprint(entry.pattern, entry.geometry.cells, scale)
    return latent


def power_up(entry: DesignEntry, latent: np.ndarray, params: ProcessParams,
             cycle_seed: int) -> Snapshot:
    """One noisy power-up of a design's device; noiseless when sigma_noise is zero."""
    g = entry.geometry
    if params.sigma_noise > 0:
        rng = np.random.default_rng(derive_seed(cycle_seed, "noise", entry.name))
        noisy = rng.standard_normal(g.cells)
        noisy *= params.sigma_noise
        latent = np.add(noisy, latent, out=noisy)
    return Snapshot(bits=np.greater(latent, 0).view(np.uint8).reshape(g.depth, g.width))


class ChipBank:
    """Lazy bank of chips sharing one floorplan, keyed off a master seed.

    Chip ``c`` on power cycle ``k`` is a pure function of (seed, c, k).
    Each thread keeps its last chip's devices: callers walk a chip's cycles
    in order, and each server session holds one chip in its own thread.
    """

    def __init__(self, designs: Sequence[DesignEntry], params: ProcessParams, seed: int):
        names = [d.name for d in designs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate design names in {names}")
        self.designs = tuple(designs)
        self.params = params
        self.seed = seed
        self._held = threading.local()  # .chip and .devices of this thread's last chip

    def devices(self, chip: int) -> dict[str, np.ndarray]:
        """{design name: latent array} of one chip."""
        if chip < 0:
            raise ValueError(f"chip must be non-negative, got {chip}")
        held = self._held
        if getattr(held, "chip", None) == chip:
            return held.devices
        held.chip = held.devices = None  # the old chip goes before the new one is made
        chip_seed = derive_seed(self.seed, "chip", chip)
        held.devices = {d.name: sample_device(d, self.params, chip_seed) for d in self.designs}
        held.chip = chip
        return held.devices

    def snapshots(self, chip: int, cycle: int) -> dict[str, Snapshot]:
        """Power-up snapshots of every design of one chip on one cycle."""
        if chip < 0 or cycle < 0:
            raise ValueError(f"chip and cycle must be non-negative, got {chip}/{cycle}")
        cycle_seed = derive_seed(self.seed, "cycle", chip, cycle)
        devices = self.devices(chip)
        return {d.name: power_up(d, devices[d.name], self.params, cycle_seed)
                for d in self.designs}
