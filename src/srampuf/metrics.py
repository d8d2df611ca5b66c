"""Bit-level quality metrics for power-up readings, plus noise calibration."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .simchip import ChipBank, DesignEntry, ProcessParams, derive_seed


class EmptyInput(ValueError):
    pass


class LengthMismatch(ValueError):
    pass


class OutOfRange(ValueError):
    pass


class CalibrationFailed(RuntimeError):
    pass


@dataclass(frozen=True)
class MetricsRow:
    """Per-design summary ranges, each pair ordered min <= max."""

    design: str
    wchd_min: float
    wchd_max: float
    mhw_min: float
    mhw_max: float
    entropy_min: float
    entropy_max: float

    def __post_init__(self) -> None:
        for lo, hi in (
            (self.wchd_min, self.wchd_max),
            (self.mhw_min, self.mhw_max),
            (self.entropy_min, self.entropy_max),
        ):
            if not 0.0 <= lo <= hi <= 1.0:
                raise OutOfRange(f"range [{lo}, {hi}] not ordered within [0, 1]")


def _as_bits(x) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise ValueError("bit array contains values other than 0/1")
    return arr.astype(np.uint8)


def fhw(bits) -> float:
    """Fractional Hamming weight: the fraction of ones."""
    arr = _as_bits(bits)
    if arr.size == 0:
        raise EmptyInput("empty bit array")
    return float(arr.mean())


def wchd(enrollment, reconstruction) -> float:
    """Within-class Hamming distance, as a fraction of compared bits."""
    a = _as_bits(enrollment)
    b = _as_bits(reconstruction)
    if a.size != b.size:
        raise LengthMismatch(f"length mismatch: {a.size} vs {b.size}")
    if a.size == 0:
        raise EmptyInput("empty bit arrays")
    return float(np.not_equal(a, b).mean())


def mhw(response, template) -> float:
    """Masked Hamming weight: FHW after removing a periodic component.

    The template is tiled from position zero and XORed onto the response;
    a trailing partial period is dropped so every template phase carries
    equal weight.
    """
    arr = _as_bits(response)
    cyc = _as_bits(template)
    if cyc.size == 0:
        raise EmptyInput("empty template")
    usable = (arr.size // cyc.size) * cyc.size
    if usable == 0:
        raise EmptyInput(
            f"response of {arr.size} bits is shorter than one {cyc.size}-bit period"
        )
    tiled = np.tile(cyc, usable // cyc.size)
    return float(np.bitwise_xor(arr[:usable], tiled).mean())


def min_entropy_by_one_probability(p: float) -> float:
    """Per-bit min-entropy of a source emitting ones with probability p."""
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"probability {p} outside [0, 1]")
    return -math.log2(max(p, 1.0 - p))


def mean_reconstruction_wchd(design: DesignEntry, params: ProcessParams, seed: int,
                             chips: int, cycles: int = 10) -> float:
    """Mean WCHD against cycle 0 over ``ChipBank((design,), params, seed)``."""
    bank = ChipBank((design,), params, seed)
    total, count = 0.0, 0
    for chip in range(chips):
        base = bank.snapshots(chip, 0)[design.name].readout()
        for cycle in range(1, cycles):
            total += wchd(base, bank.snapshots(chip, cycle)[design.name].readout())
            count += 1
    return total / count


def calibrate_noise(
    target_wchd: float,
    params: ProcessParams,
    probe_design: DesignEntry,
    budget: int = 90,
) -> float:
    """Find sigma_noise so the mean reconstruction WCHD hits ``target_wchd``.

    Each probe fabricates enough chips to cover ``budget`` enrollment vs
    reconstruction comparisons of ``probe_design`` and averages the
    fractional Hamming distance.  The mean grows monotonically from zero
    with sigma_noise, so bisection converges once a bracket is found; the
    result lands within +-0.01 of the target.
    """
    if not 0.0 <= target_wchd < 0.5:
        raise OutOfRange(f"target WCHD must be in [0, 0.5), got {target_wchd}")
    if target_wchd == 0.0:
        return 0.0
    if budget < 1:
        raise OutOfRange(f"budget must be positive, got {budget}")
    cycles = 10
    chips = -(-budget // (cycles - 1))
    probe_seed = derive_seed("noise-calibration", probe_design.name, budget)

    def mean_wchd(sigma_noise: float) -> float:
        probe = replace(params, sigma_noise=sigma_noise)
        return mean_reconstruction_wchd(probe_design, probe, probe_seed, chips, cycles)

    lo, hi = 0.0, params.sigma_mismatch
    f_hi = mean_wchd(hi)
    doublings = 0
    while f_hi < target_wchd:
        lo = hi
        hi *= 2.0
        f_hi = mean_wchd(hi)
        doublings += 1
        if doublings > 6:
            raise CalibrationFailed(
                f"mean WCHD saturates at {f_hi:.4f} below target {target_wchd}"
            )
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        f_mid = mean_wchd(mid)
        if abs(f_mid - target_wchd) <= 0.01 and hi - lo < 0.05 * params.sigma_mismatch:
            return mid
        if f_mid < target_wchd:
            lo = mid
        else:
            hi = mid
    raise CalibrationFailed(
        f"no convergence: bracket [{lo:.5f}, {hi:.5f}] for target {target_wchd}"
    )
