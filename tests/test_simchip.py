"""Simulated chip behavior: imprint, noise, determinism, and the chip bank."""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import pattern_bit
from srampuf.layout import Geometry, Orientation, PlacedMacro
from srampuf.simchip import (
    ChipBank,
    DegenerateGradient,
    DesignEntry,
    ProcessParams,
    Snapshot,
    derive_seed,
    orientation_sign,
    power_up,
    sample_device,
)


def make_entry(name="D0", pattern="0(16)1(16)", orient=Orientation.R0,
               depth=1024, width=32, mux=8, origin=(0, 0)):
    g = Geometry(depth=depth, width=width, mux=mux)
    return DesignEntry(name=name, placed=PlacedMacro(g, orient, origin),
                       pattern=pattern)


def test_derive_seed_matches_sha256_prefix():
    parts = (7, "chip", 3)
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    assert derive_seed(*parts) == int.from_bytes(digest[:8], "big")
    # distinct paths, distinct streams
    assert derive_seed(7, "chip", 3) != derive_seed(7, "chip", 30)
    assert derive_seed("a", "bc") != derive_seed("ab", "c")


def test_process_params_validation():
    with pytest.raises(ValueError):
        ProcessParams(sigma_mismatch=0.0)
    with pytest.raises(ValueError):
        ProcessParams(sigma_noise=-0.1)
    with pytest.raises(ValueError):
        ProcessParams(beta=-0.5)


def test_orientation_sign_table():
    params = ProcessParams()
    expected = {
        Orientation.R0: 1,
        Orientation.R90: 1,
        Orientation.MX: 1,
        Orientation.R270: -1,
        Orientation.MY90: -1,
    }
    for o, sign in expected.items():
        assert orientation_sign(params, o) == sign


def test_orientation_sign_degenerate_gradient():
    params = ProcessParams(gradient=(0.0, 1.0))
    with pytest.raises(DegenerateGradient):
        orientation_sign(params, Orientation.R0)


@given(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-8, max_value=8),
    st.sampled_from(list(Orientation)),
)
def test_negating_the_gradient_flips_every_sign(gx, gy, o):
    assume(gx or gy)
    params = ProcessParams(gradient=(float(gx), float(gy)))
    flipped = ProcessParams(gradient=(float(-gx), float(-gy)))
    try:
        sign = orientation_sign(params, o)
    except DegenerateGradient:
        with pytest.raises(DegenerateGradient):
            orientation_sign(flipped, o)
        return
    assert orientation_sign(flipped, o) == -sign


def test_imprint_follows_pattern_along_readout():
    params = ProcessParams(beta=0.25)
    dev = sample_device(make_entry(), params, chip_seed=11)
    beta = params.beta
    assert np.all(dev.imprint[:16] == -beta)
    assert np.all(dev.imprint[16:32] == beta)
    # period 32 across the whole array, matching a literal pattern walk
    cells = dev.imprint.size
    expect = np.array(
        [beta if pattern_bit("0(16)1(16)", k) else -beta for k in range(cells)]
    )
    assert np.array_equal(dev.imprint, expect)


def test_imprint_sign_flips_for_mirrored_placement():
    params = ProcessParams(beta=0.25)
    up = sample_device(make_entry(orient=Orientation.R0), params, chip_seed=1)
    down = sample_device(make_entry(orient=Orientation.R270), params, chip_seed=1)
    assert np.array_equal(up.imprint, -down.imprint)


def test_zero_beta_means_zero_imprint():
    dev = sample_device(make_entry(), ProcessParams(beta=0.0), chip_seed=5)
    assert not dev.imprint.any()


def test_sample_device_is_deterministic():
    a = sample_device(make_entry(), ProcessParams(), chip_seed=42)
    b = sample_device(make_entry(), ProcessParams(), chip_seed=42)
    assert np.array_equal(a.mismatch, b.mismatch)
    assert np.array_equal(a.imprint, b.imprint)
    c = sample_device(make_entry(), ProcessParams(), chip_seed=43)
    assert not np.array_equal(a.mismatch, c.mismatch)


def test_noiseless_power_ups_are_identical():
    params = ProcessParams(sigma_noise=0.0)
    dev = sample_device(make_entry(), params, chip_seed=3)
    s1 = power_up(dev, params, cycle_seed=100)
    s2 = power_up(dev, params, cycle_seed=200)
    assert np.array_equal(s1.bits, s2.bits)


def test_power_up_is_deterministic_per_cycle_seed():
    params = ProcessParams()
    dev = sample_device(make_entry(), params, chip_seed=3)
    a = power_up(dev, params, cycle_seed=7)
    b = power_up(dev, params, cycle_seed=7)
    c = power_up(dev, params, cycle_seed=8)
    assert np.array_equal(a.bits, b.bits)
    assert not np.array_equal(a.bits, c.bits)


def test_huge_beta_pins_bits_to_the_pattern():
    params = ProcessParams(beta=1000.0)
    entry = make_entry(pattern="0(16)1(16)")
    dev = sample_device(entry, params, chip_seed=9)
    snap = power_up(dev, params, cycle_seed=1)
    expect = entry.parsed_pattern().bits(dev.imprint.size)
    assert np.array_equal(snap.readout(), expect)


def test_unbiased_noiseless_weight_is_near_half():
    """With no imprint and no noise the ones fraction is binomial around 0.5."""
    params = ProcessParams(beta=0.0, sigma_noise=0.0)
    entry = make_entry()  # 1024 x 32 = 2**15 cells
    for seed in (0, 1, 2):
        dev = sample_device(entry, params, chip_seed=seed)
        snap = power_up(dev, params, cycle_seed=0)
        w = snap.readout().mean()
        assert 0.48 <= w <= 0.52


def test_default_reconstruction_distance_band():
    """Mean enrollment-vs-reconstruction distance under default parameters."""
    bank = ChipBank([make_entry()], ProcessParams(), seed=2024)
    dists = []
    for chip in range(10):
        ref = bank.snapshots(chip, 0)["D0"].readout()
        for cycle in range(1, 10):
            got = bank.snapshots(chip, cycle)["D0"].readout()
            dists.append(np.mean(ref != got))
    assert 0.05 <= np.mean(dists) <= 0.091


def test_readout_is_address_major():
    snap = Snapshot(bits=np.array([[0, 1], [1, 0]], dtype=np.uint8), chip_id=0, cycle=0)
    assert np.array_equal(snap.readout(), [0, 1, 1, 0])
    ones = Snapshot(bits=np.ones((3, 4), dtype=np.uint8), chip_id=0, cycle=0)
    assert ones.readout().all() and ones.readout().size == 12


def test_bank_rejects_duplicate_names():
    with pytest.raises(ValueError):
        ChipBank([make_entry("A"), make_entry("A")], ProcessParams(), seed=0)


def test_bank_rejects_negative_chip_and_cycle():
    bank = ChipBank([make_entry("A"), make_entry("B")], ProcessParams(), seed=0)
    with pytest.raises(ValueError):
        bank.snapshots(-1, 0)
    with pytest.raises(ValueError):
        bank.snapshots(0, -1)


def test_bank_snapshots_survive_cache_eviction():
    designs = [make_entry(depth=64, width=8, mux=4)]
    bank = ChipBank(designs, ProcessParams(), seed=77)
    first = bank.snapshots(0, 0)["D0"].bits
    for chip in range(1, 7):  # push chip 0 out of the device cache
        bank.snapshots(chip, 0)
    again = bank.snapshots(0, 0)["D0"].bits
    assert np.array_equal(first, again)


def test_banks_with_equal_seeds_agree():
    designs = [make_entry("A"), make_entry("B", orient=Orientation.MX)]
    one = ChipBank(designs, ProcessParams(), seed=5)
    two = ChipBank(designs, ProcessParams(), seed=5)
    other = ChipBank(designs, ProcessParams(), seed=6)
    for chip, cycle in [(0, 0), (3, 2)]:
        a = one.snapshots(chip, cycle)
        b = two.snapshots(chip, cycle)
        for name in ("A", "B"):
            assert np.array_equal(a[name].bits, b[name].bits)
    assert not np.array_equal(
        one.snapshots(0, 0)["A"].bits, other.snapshots(0, 0)["A"].bits
    )
