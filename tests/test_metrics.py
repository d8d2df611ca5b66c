"""Hamming-style metrics, min-entropy, and the noise calibration loop."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from srampuf.layout import Geometry, Orientation, PlacedMacro
from srampuf.metrics import (
    CalibrationFailed,
    EmptyInput,
    LengthMismatch,
    MetricsRow,
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
    return DesignEntry(name=name, placed=PlacedMacro(g, Orientation.R90),
                       pattern="0(16)1(16)")


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


def test_metrics_row_validates_ranges():
    MetricsRow("P1", 0.05, 0.09, 0.39, 0.62, 0.68, 1.0)
    with pytest.raises(OutOfRange):
        MetricsRow("P1", 0.09, 0.05, 0.39, 0.62, 0.68, 1.0)
    with pytest.raises(OutOfRange):
        MetricsRow("P1", 0.05, 0.09, 0.39, 1.62, 0.68, 1.0)
    with pytest.raises(OutOfRange):
        MetricsRow("P1", -0.1, 0.09, 0.39, 0.62, 0.68, 1.0)


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
