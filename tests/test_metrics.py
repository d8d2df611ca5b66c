"""Hamming-style metrics, min-entropy, and the noise calibration loop."""

import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srampuf import analyze
from srampuf.layout import Geometry, Orientation
from srampuf.metrics import (
    CalibrationFailed,
    EmptyInput,
    LengthMismatch,
    OutOfRange,
    calibrate_noise,
    fhw,
    mean_reconstruction_wchd,
    mhw,
    min_entropy_by_one_probability,
    wchd,
)
from srampuf.simchip import ChipBank, DesignEntry, ProcessParams

# MHW endpoint farthest from 0.5 -> per-bit entropy lower endpoint, per design
ENTROPY_PAIRS = [
    (0.622, 0.685),
    (0.564, 0.826),
    (0.430, 0.811),
    (0.435, 0.824),
    (0.575, 0.798),
    (0.390, 0.713),
]


def probe_entry(depth=1024, width=32, mux=8, name="probe"):
    g = Geometry(depth=depth, width=width, mux=mux)
    return DesignEntry(name, g, Orientation.R90, "0(16)1(16)")


bitvecs = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=64)


def test_fhw_examples():
    assert fhw([0, 0, 0, 0]) == 0.0
    assert fhw([1, 1, 1, 1]) == 1.0
    assert fhw([1, 0, 1, 0]) == 0.5
    with pytest.raises(EmptyInput):
        fhw([])
    with pytest.raises(ValueError):
        fhw([0, 2, 1])


def test_wchd_examples():
    x = np.random.default_rng(0).integers(0, 2, size=8192).astype(np.uint8)
    assert wchd(x, x) == 0.0
    assert wchd(x, 1 - x) == 1.0
    y = x.copy()
    y[5] ^= 1
    assert wchd(x, y) == 1.0 / 8192.0
    with pytest.raises(LengthMismatch):
        wchd([0, 1], [0, 1, 1])
    with pytest.raises(EmptyInput):
        wchd([], [])


@given(bitvecs, st.data())
def test_wchd_is_a_metric(a, data):
    n = len(a)
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    b = data.draw(bits)
    c = data.draw(bits)
    assert wchd(a, a) == 0.0
    assert wchd(a, b) == wchd(b, a)
    assert wchd(a, c) <= wchd(a, b) + wchd(b, c) + 1e-12


def test_mhw_tiles_template_from_position_zero():
    template = [0, 0, 1, 1]
    response = np.tile(template, 6)
    assert mhw(response, template) == 0.0
    assert mhw(1 - response, template) == 1.0


def test_mhw_drops_trailing_partial_period():
    # only the first 4 bits are compared; the trailing 1 is ignored
    assert mhw([0, 1, 0, 1, 1], [0, 1]) == 0.0
    assert mhw([1, 1, 1], [0, 1]) == 0.5


def test_mhw_errors():
    with pytest.raises(EmptyInput):
        mhw([0, 1], [])
    with pytest.raises(EmptyInput):
        mhw([0, 1], [0, 1, 1, 0])  # shorter than one period


@given(bitvecs)
def test_mhw_with_zero_template_is_fhw(x):
    assert mhw(x, [0]) == fhw(x)
    assert mhw(x, [1]) == pytest.approx(1.0 - fhw(x))


def test_mhw_of_unbiased_random_response():
    rng = np.random.default_rng(20240101)
    response = rng.integers(0, 2, size=1 << 20)
    template = [0] * 16 + [1] * 16
    assert abs(mhw(response, template) - 0.5) < 0.01


def test_wchd_and_mhw_equal_the_float_mean_exactly():
    rng = np.random.default_rng(20261019)
    # Counts go eight cells to a word: short readings, readings around a word
    # boundary, then random lengths.
    lengths = [*range(1, 18), 63, 64, 65, *rng.integers(1, 3000, size=200).tolist()]
    for n in lengths:
        shape = tuple(rng.integers(1, 6, size=rng.integers(0, 3))) + (n,)
        one_probability = rng.random()
        a = rng.random(shape) < one_probability
        b = (rng.random(shape) < one_probability).astype(np.uint8)
        pairs = [(a[..., :1, :] if a.ndim > 1 else a, b)]
        if b.ndim > 1:  # analyze's slices, and a stack whose last axis is not contiguous
            pairs += [(b[..., :1, :], b[..., 1:, :]), (a, np.asfortranarray(b))]
        # A random period, and one that leaves a tail shorter than a word.
        periods = [int(rng.integers(1, n + 1)), *([3] if n >= 3 else [])]
        for enrollment, stack in pairs:
            checks = [(wchd(enrollment, stack), np.not_equal(enrollment, stack).mean(axis=-1))]
            for period in periods:
                template = (rng.random(period) < 0.5).astype(np.uint8)
                usable = n // period * period
                tiled = np.tile(template, usable // period)
                checks.append((mhw(stack, template),
                               np.bitwise_xor(stack[..., :usable], tiled).mean(axis=-1)))
            for got, want in checks:
                if len(shape) == 1:
                    assert type(got) is float and got == float(want)
                else:
                    assert got.dtype == np.float64 and np.array_equal(got, want)


def _pack(bits, width):
    """0/1 readings as dump word bytes, one Python int per word: big-endian, bit b worth 2**b."""
    size = -(-width // 8)
    out = bytearray()
    for word in bits.reshape(-1, width).tolist():
        out += sum(bit << b for b, bit in enumerate(word)).to_bytes(size, "big")
    return np.frombuffer(bytes(out), dtype=np.uint8).reshape(*bits.shape[:-1], -1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_packed_counts_equal_the_bit_array_counts(data):
    width = data.draw(st.integers(1, 64), label="width")
    depth = data.draw(st.integers(1, 40), label="depth")  # mostly not a multiple of 8
    chips, cycles = data.draw(st.integers(1, 3), label="chips"), data.draw(st.integers(2, 4),
                                                                            label="cycles")
    cells = depth * width
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    one_probability = data.draw(st.sampled_from([0.0, 0.03, 0.5, 1.0]), label="p")
    bits = (rng.random((chips, cycles, cells)) < one_probability).astype(np.uint8)
    # Most periods leave a partial period at the end, which mhw drops.
    period = data.draw(st.integers(1, cells), label="period")
    template = (rng.random(period) < 0.5).astype(np.uint8)
    packed = _pack(bits, width)

    assert np.array_equal(wchd(packed[:, :1], packed[:, 1:], width),
                          wchd(bits[:, :1], bits[:, 1:]))
    assert wchd(packed[0, 0], packed[0, 1], width) == wchd(bits[0, 0], bits[0, 1])
    assert np.array_equal(mhw(packed, template, width), mhw(bits, template))
    assert mhw(packed[0, 0], template, width) == mhw(bits[0, 0], template)
    for chip in range(chips):
        assert fhw(packed[chip], width) == fhw(bits[chip])
    # Blocks of one row up to all rows at once, with a last block cut short.
    unpack_bytes = data.draw(st.integers(1, chips * cycles * cells), label="unpack bytes")
    with mock.patch.object(analyze, "UNPACK_BYTES", unpack_bytes):
        ones = analyze._column_ones(packed.reshape(chips * cycles, -1), width)
    assert np.array_equal(ones, bits.reshape(-1, cells).sum(axis=0))


def test_column_sums_stay_exact_past_255_readings():
    # One block would hold all 300 rows, past what a uint8 sum can count.
    packed = np.full((300, 2), 0xFF, dtype=np.uint8)
    with mock.patch.object(analyze, "UNPACK_BYTES", 1 << 30):
        ones = analyze._column_ones(packed, 16)
    assert np.array_equal(ones, np.full(16, 300))


def test_packed_readings_must_be_whole_words():
    with pytest.raises(LengthMismatch):
        wchd(np.zeros(3, np.uint8), np.zeros(3, np.uint8), width=9)
    with pytest.raises(EmptyInput):
        fhw(np.zeros((2, 0), np.uint8), width=9)


def test_min_entropy_endpoints():
    assert min_entropy_by_one_probability(0.5) == 1.0
    assert min_entropy_by_one_probability(0.0) == 0.0
    assert min_entropy_by_one_probability(1.0) == 0.0
    assert min_entropy_by_one_probability(0.49) < 1.0
    with pytest.raises(OutOfRange):
        min_entropy_by_one_probability(-0.01)
    with pytest.raises(OutOfRange):
        min_entropy_by_one_probability(1.01)


@pytest.mark.parametrize("p,entropy", ENTROPY_PAIRS)
def test_min_entropy_reproduces_report_endpoints(p, entropy):
    assert min_entropy_by_one_probability(p) == pytest.approx(entropy, abs=1e-3)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_min_entropy_is_symmetric(p):
    a = min_entropy_by_one_probability(p)
    b = min_entropy_by_one_probability(1.0 - p)
    assert a == pytest.approx(b, abs=1e-12)
    assert 0.0 <= a <= 1.0


def test_calibrate_noise_zero_target_is_noiseless():
    assert calibrate_noise(0.0, ProcessParams(), probe_entry()) == 0.0


def test_calibrate_noise_validates_inputs():
    with pytest.raises(OutOfRange):
        calibrate_noise(0.5, ProcessParams(), probe_entry())
    with pytest.raises(OutOfRange):
        calibrate_noise(-0.1, ProcessParams(), probe_entry())
    with pytest.raises(OutOfRange):
        calibrate_noise(0.065, ProcessParams(), probe_entry(), budget=0)


def test_mean_reconstruction_wchd_compares_every_cycle_with_cycle_0():
    probe = probe_entry(depth=64, width=16, mux=8, name="tiny")
    bank = ChipBank([probe], ProcessParams(), seed=11)
    expect = [
        np.mean(bank.snapshots(chip, 0)["tiny"].bits != bank.snapshots(chip, k)["tiny"].bits)
        for chip in range(3) for k in range(1, 4)
    ]
    got = mean_reconstruction_wchd(probe, ProcessParams(), 11, chips=3, cycles=4)
    assert got == pytest.approx(np.mean(expect))


def test_calibrated_sigma_hits_the_target_band():
    """Re-measure the calibrated noise level on fresh chips."""
    params = ProcessParams()
    probe = probe_entry()
    sigma = calibrate_noise(0.065, params, probe, budget=90)
    assert sigma > 0
    bank = ChipBank([probe], ProcessParams(sigma_noise=sigma), seed=31337)
    dists = []
    for chip in range(10):
        ref = bank.snapshots(chip, 0)["probe"].readout()
        for cycle in range(1, 10):
            got = bank.snapshots(chip, cycle)["probe"].readout()
            dists.append(np.mean(ref != got))
    assert 0.055 <= np.mean(dists) <= 0.075


def test_calibrate_noise_script_reproduces_the_default_sigma():
    script = Path(__file__).parents[1] / "scripts" / "calibrate_noise.py"
    proc = subprocess.run([sys.executable, str(script), "--targets", "0.065"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].split() == ["0.065", "0.140625", "0.0628"]


def test_calibration_is_monotone_in_the_target():
    params = ProcessParams()
    probe = probe_entry(depth=512, width=16, mux=8, name="small")
    lo = calibrate_noise(0.05, params, probe, budget=45)
    hi = calibrate_noise(0.09, params, probe, budget=45)
    assert hi > lo


def test_calibration_fails_when_target_is_unreachable():
    # mismatch fully dominated by a huge imprint: flips can't reach 40%
    params = ProcessParams(beta=50.0)
    probe = probe_entry(depth=64, width=16, mux=8, name="tiny")
    with pytest.raises(CalibrationFailed):
        calibrate_noise(0.45, params, probe, budget=18)
