"""Behavioral model of the simulated test chips.

A bitcell powers up to 1 when its static threshold mismatch, plus a small
layout-correlated imprint shift, plus fresh per-cycle noise lands above
zero:

    bit(addr, b) = [ mismatch[addr, b] + imprint[addr * width + b] + n > 0 ]

``mismatch`` is frozen per chip at fabrication; ``imprint`` follows the
design's run-length pattern along the serial readout order, scaled by beta
and by the orientation sign — the projection of the die-level doping
gradient onto the macro's local column axis.  Mirrored or counter-rotated
placements see the gradient from the other side, which flips the imprint.

All randomness is drawn from streams keyed by hashed seed paths, so equal
seeds give bit-identical devices and snapshots in any evaluation order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .layout import Geometry, Orientation, PlacedMacro, apply_orientation
from .patterns import RunLengthPattern, parse_run_length

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
        if self.sigma_mismatch <= 0:
            raise ValueError("sigma_mismatch must be positive")
        if self.sigma_noise < 0:
            raise ValueError("sigma_noise must be non-negative")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")


@dataclass(frozen=True)
class DesignEntry:
    """One named macro placement plus its imprint pattern."""

    name: str
    placed: PlacedMacro
    pattern: str

    @property
    def geometry(self) -> Geometry:
        return self.placed.geometry

    @property
    def orientation(self) -> Orientation:
        return self.placed.orientation

    def parsed_pattern(self) -> RunLengthPattern:
        return parse_run_length(self.pattern)


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
class DeviceArray:
    """One simulated macro on one chip: static mismatch plus bias imprint."""

    design: DesignEntry
    mismatch: np.ndarray  # (depth, width) static per-cell mismatch
    imprint: np.ndarray  # (depth*width,) +-beta along readout order


@dataclass(frozen=True)
class Snapshot:
    """Power-up state of one device: a depth x width bit matrix."""

    bits: np.ndarray
    chip_id: int
    cycle: int

    def readout(self) -> np.ndarray:
        """Bits concatenated in serial readout order (addr-major)."""
        return self.bits.reshape(-1)


def sample_device(entry: DesignEntry, params: ProcessParams, chip_seed: int) -> DeviceArray:
    """Fabricate one chip's instance of a design from a keyed random stream."""
    g = entry.geometry
    sign = orientation_sign(params, entry.orientation)
    rng = np.random.default_rng(derive_seed(chip_seed, "mismatch", entry.name))
    mismatch = rng.standard_normal((g.depth, g.width)) * params.sigma_mismatch
    pattern_signs = entry.parsed_pattern().signs(g.cells)
    imprint = sign * params.beta * pattern_signs
    return DeviceArray(design=entry, mismatch=mismatch, imprint=imprint)


def power_up(
    dev: DeviceArray,
    params: ProcessParams,
    cycle_seed: int,
    *,
    chip_id: int = 0,
    cycle: int = 0,
) -> Snapshot:
    """One noisy power-up of a device; noiseless when sigma_noise is zero."""
    g = dev.design.geometry
    latent = dev.mismatch.reshape(-1) + dev.imprint
    if params.sigma_noise > 0:
        rng = np.random.default_rng(derive_seed(cycle_seed, "noise", dev.design.name))
        latent = latent + rng.standard_normal(g.cells) * params.sigma_noise
    bits = (latent > 0).astype(np.uint8).reshape(g.depth, g.width)
    return Snapshot(bits=bits, chip_id=chip_id, cycle=cycle)


class ChipBank:
    """Lazy bank of chips sharing one floorplan, keyed off a master seed.

    Chip ``c`` on power cycle ``k`` is a pure function of (seed, c, k);
    recently fabricated chips are cached because collection walks cycles
    chip by chip.
    """

    def __init__(
        self,
        designs: Sequence[DesignEntry],
        params: ProcessParams | None = None,
        seed: int = 0,
    ):
        names = [d.name for d in designs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate design names in {names}")
        self.designs = tuple(designs)
        self.params = params if params is not None else ProcessParams()
        self.seed = seed
        self._devices: dict[int, dict[str, DeviceArray]] = {}

    def devices(self, chip: int) -> dict[str, DeviceArray]:
        cached = self._devices.get(chip)
        if cached is not None:
            return cached
        chip_seed = derive_seed(self.seed, "chip", chip)
        made = {d.name: sample_device(d, self.params, chip_seed) for d in self.designs}
        if len(self._devices) >= 4:
            self._devices.pop(next(iter(self._devices)))
        self._devices[chip] = made
        return made

    def snapshots(self, chip: int, cycle: int) -> dict[str, Snapshot]:
        """Power-up snapshots of every design of one chip on one cycle."""
        if chip < 0 or cycle < 0:
            raise ValueError(f"chip and cycle must be non-negative, got {chip}/{cycle}")
        cycle_seed = derive_seed(self.seed, "cycle", chip, cycle)
        return {
            name: power_up(dev, self.params, cycle_seed, chip_id=chip, cycle=cycle)
            for name, dev in self.devices(chip).items()
        }
