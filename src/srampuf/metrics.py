"""Bit-level quality metrics for power-up readings, plus noise calibration.

A reading is either one 0/1 byte per bit or, given its word ``width``, the
packed form dumps decode to: each word's big-endian bytes (``dumpfile``
layout), bits past the width zero.  Either way the counts come from one
popcount kernel, so packed readings are never unpacked.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .chipnet.dumpfile import word_byte_width
from .simchip import ChipBank, DesignEntry, ProcessParams, derive_seed


class EmptyInput(ValueError):
    pass


class LengthMismatch(ValueError):
    pass


class OutOfRange(ValueError):
    pass


class CalibrationFailed(RuntimeError):
    pass


def _as_bits(x) -> np.ndarray:
    """``x`` as a uint8 array of its own shape, checked to hold only 0/1."""
    arr = np.asarray(x)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.dtype.kind in "bu":  # no negatives, so one pass for the maximum
        ok = arr.max(initial=0) <= 1
    else:
        ok = np.isin(arr, (0, 1)).all()
    if not ok:
        raise ValueError("bit array contains values other than 0/1")
    return arr.astype(np.uint8, copy=False)


def _as_readings(x, width: int | None) -> tuple[np.ndarray, int]:
    """``x`` as uint8 readings along the last axis, and the bit count of one reading:
    0/1 bytes without ``width``, packed words with it."""
    if width is None:
        arr = _as_bits(x)
        return arr, arr.shape[-1]
    arr, size = np.asarray(x, dtype=np.uint8), word_byte_width(width)
    if arr.ndim == 0 or arr.shape[-1] % size:
        raise LengthMismatch(f"readings of shape {arr.shape} are not whole {size}-byte words")
    return arr, arr.shape[-1] // size * width


def fhw(bits, width: int | None = None) -> float:
    """Fractional Hamming weight: the fraction of ones, over every reading given."""
    arr, cells = _as_readings(bits, width)
    if arr.size == 0 or cells == 0:
        raise EmptyInput("empty bit array")
    return float(_ones(arr.reshape(-1)) / (arr.size // arr.shape[-1] * cells))


def _per_reading(values: np.ndarray):
    """A float for a single reading, the array for a stack of them.

    Callers pass exact integer counts over the bit count: below 2**53 that
    is bit for bit the float64 ``mean`` of the 0/1 values.
    """
    return float(values) if values.ndim == 0 else values


def _ones(x: np.ndarray) -> np.ndarray:
    """Exact count of set bits along the last axis of uint8 bytes, eight to a uint64 word."""
    x = np.ascontiguousarray(x)
    whole = x.shape[-1] // 8 * 8
    return (np.bitwise_count(x[..., :whole].view(np.uint64)).sum(axis=-1, dtype=np.int64)
            + np.bitwise_count(x[..., whole:]).sum(axis=-1, dtype=np.int64))


def wchd(enrollment, reconstruction, width: int | None = None):
    """Within-class Hamming distance, as a fraction of compared bits.

    Readings lie along the last axis; leading axes broadcast, so stacks of
    readings give an array of distances and two 1-d readings give a float.
    Given ``width``, readings are packed and XOR as they are.
    """
    a, cells = _as_readings(enrollment, width)
    b, _ = _as_readings(reconstruction, width)
    if a.shape[-1] != b.shape[-1]:
        raise LengthMismatch(f"length mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    if cells == 0:
        raise EmptyInput("empty bit arrays")
    return _per_reading(_ones(np.bitwise_xor(a, b)) / cells)


def mhw(response, template, width: int | None = None):
    """Masked Hamming weight: FHW after removing a periodic component.

    The template is tiled from position zero and XORed onto the response;
    a trailing partial period is dropped so every template phase carries
    equal weight.  Responses lie along the last axis: a stack of responses
    gives an array, a 1-d response a float.  Given ``width``, responses are
    packed, and the tiled template and the mask of whole periods are packed
    alike.
    """
    arr, cells = _as_readings(response, width)
    cyc = _as_bits(template).reshape(-1)
    if cyc.size == 0:
        raise EmptyInput("empty template")
    usable = (cells // cyc.size) * cyc.size
    if usable == 0:
        raise EmptyInput(
            f"response of {cells} bits is shorter than one {cyc.size}-bit period"
        )
    tiled = np.tile(cyc, usable // cyc.size)
    if width is None:
        return _per_reading(_ones(np.bitwise_xor(arr[..., :usable], tiled)) / usable)
    planes = np.zeros((2, cells), dtype=np.uint8)  # the tiled template, then the mask
    planes[0, :usable] = tiled
    planes[1, :usable] = 1
    # Each word's bits, most significant first, left-padded to whole bytes: the dump layout.
    words = np.pad(planes.reshape(-1, width)[:, ::-1], ((0, 0), (-width % 8, 0)))
    pattern, mask = np.packbits(words, axis=1).reshape(2, -1)
    diff = np.bitwise_xor(arr, pattern)
    return _per_reading(_ones(np.bitwise_and(diff, mask, out=diff)) / usable)


def min_entropy_by_one_probability(p: float) -> float:
    """Per-bit min-entropy of a source emitting ones with probability p."""
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"probability {p} outside [0, 1]")
    return -math.log2(max(p, 1.0 - p))


def entropy_range(mhw_min: float, mhw_max: float) -> tuple[float, float]:
    """(min, max) min-entropy: of the MHW endpoint farther from 0.5, then of the nearer."""
    far, near = ((mhw_min, mhw_max) if abs(mhw_min - 0.5) >= abs(mhw_max - 0.5)
                 else (mhw_max, mhw_min))
    return min_entropy_by_one_probability(far), min_entropy_by_one_probability(near)


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
