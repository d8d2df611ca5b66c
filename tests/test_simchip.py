"""Simulated chip behavior: imprint, noise, determinism, and the chip bank."""

import hashlib
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import pattern_bit, power_up_reference
from srampuf import simchip
from srampuf.floorplan import DEFAULT_DESIGNS
from srampuf.layout import Geometry, Orientation
from srampuf.metrics import calibrate_noise
from srampuf.patterns import parse_run_length
from srampuf.simchip import (
    ChipBank,
    DegenerateGradient,
    DesignEntry,
    ProcessParams,
    Snapshot,
    _imprint,
    derive_seed,
    orientation_sign,
    power_up,
    sample_device,
)


def make_entry(name="D0", pattern="0(16)1(16)", orient=Orientation.R0,
               depth=1024, width=32, mux=8, origin=(0, 0)):
    g = Geometry(depth=depth, width=width, mux=mux)
    return DesignEntry(name, g, orient, pattern, origin)


def imprint_of(entry, params, chip_seed=0):
    """The design's cached imprint, checked to be what sample_device adds to a chip's mismatch."""
    scale = orientation_sign(params, entry.orientation) * params.beta
    imprint = _imprint(entry.pattern, entry.geometry.cells, scale)
    mismatch = sample_device(entry, replace(params, beta=0.0), chip_seed)
    assert np.array_equal(sample_device(entry, params, chip_seed), mismatch + imprint)
    return imprint


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
    imprint = imprint_of(make_entry(), params, chip_seed=11)
    beta = params.beta
    assert np.all(imprint[:16] == -beta)
    assert np.all(imprint[16:32] == beta)
    # period 32 across the whole array, matching a literal pattern walk
    cells = imprint.size
    expect = np.array(
        [beta if pattern_bit("0(16)1(16)", k) else -beta for k in range(cells)]
    )
    assert np.array_equal(imprint, expect)


def test_imprint_sign_flips_for_mirrored_placement():
    params = ProcessParams(beta=0.25)
    up = imprint_of(make_entry(orient=Orientation.R0), params, chip_seed=1)
    down = imprint_of(make_entry(orient=Orientation.R270), params, chip_seed=1)
    assert np.array_equal(up, -down)


def test_zero_beta_means_zero_imprint():
    assert not imprint_of(make_entry(), ProcessParams(beta=0.0), chip_seed=5).any()


def test_sample_device_is_deterministic():
    a = sample_device(make_entry(), ProcessParams(), chip_seed=42)
    b = sample_device(make_entry(), ProcessParams(), chip_seed=42)
    assert np.array_equal(a, b)
    assert np.array_equal(imprint_of(make_entry(), ProcessParams(), chip_seed=42),
                          imprint_of(make_entry(), ProcessParams(), chip_seed=43))
    c = sample_device(make_entry(), ProcessParams(), chip_seed=43)
    assert not np.array_equal(a, c)


def test_chips_of_a_design_share_one_read_only_imprint():
    designs = [make_entry("A"), make_entry("B", orient=Orientation.R270)]
    bank = ChipBank(designs, ProcessParams(), seed=8)
    _imprint.cache_clear()
    bank.devices(0)
    bank.devices(1)
    info = _imprint.cache_info()
    assert (info.misses, info.hits) == (2, 2)  # one imprint per design, reused by chip 1
    a, b = (imprint_of(d, bank.params) for d in designs)
    for imprint in (a, b):
        with pytest.raises(ValueError):
            imprint[0] = 0.0
    assert a is not b


def test_noise_calibration_caches_one_imprint():
    """The imprint cache is keyed on what shapes the imprint, not on sigma_noise."""
    probe = DesignEntry("probe", Geometry(1024, 32, 8), Orientation.R90, "0(16)1(16)")
    _imprint.cache_clear()
    calibrate_noise(0.065, ProcessParams(), probe, 90)
    assert _imprint.cache_info().currsize <= 1


def test_noiseless_power_ups_are_identical():
    params = ProcessParams(sigma_noise=0.0)
    entry = make_entry()
    latent = sample_device(entry, params, chip_seed=3)
    s1 = power_up(entry, latent, params, cycle_seed=100)
    s2 = power_up(entry, latent, params, cycle_seed=200)
    assert np.array_equal(s1.bits, s2.bits)


def test_power_up_is_deterministic_per_cycle_seed():
    params = ProcessParams()
    entry = make_entry()
    latent = sample_device(entry, params, chip_seed=3)
    a = power_up(entry, latent, params, cycle_seed=7)
    b = power_up(entry, latent, params, cycle_seed=7)
    c = power_up(entry, latent, params, cycle_seed=8)
    assert np.array_equal(a.bits, b.bits)
    assert not np.array_equal(a.bits, c.bits)


def test_huge_beta_pins_bits_to_the_pattern():
    params = ProcessParams(beta=1000.0)
    entry = make_entry(pattern="0(16)1(16)")
    latent = sample_device(entry, params, chip_seed=9)
    snap = power_up(entry, latent, params, cycle_seed=1)
    expect = parse_run_length(entry.pattern).bits(latent.size)
    assert np.array_equal(snap.readout(), expect)


def test_unbiased_noiseless_weight_is_near_half():
    """With no imprint and no noise the ones fraction is binomial around 0.5."""
    params = ProcessParams(beta=0.0, sigma_noise=0.0)
    entry = make_entry()  # 1024 x 32 = 2**15 cells
    for seed in (0, 1, 2):
        latent = sample_device(entry, params, chip_seed=seed)
        snap = power_up(entry, latent, params, cycle_seed=0)
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
    snap = Snapshot(bits=np.array([[0, 1], [1, 0]], dtype=np.uint8))
    assert np.array_equal(snap.readout(), [0, 1, 1, 0])
    ones = Snapshot(bits=np.ones((3, 4), dtype=np.uint8))
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
    for chip in range(1, 7):  # chip 0 leaves this thread's one slot
        bank.snapshots(chip, 0)
    again = bank.snapshots(0, 0)["D0"].bits
    assert np.array_equal(first, again)


SMALL_BANK = [make_entry("A", depth=64, width=8, mux=4),
              make_entry("B", depth=32, width=16, mux=4, orient=Orientation.R270)]


def test_bank_keeps_the_last_chip_only():
    bank = ChipBank(SMALL_BANK, ProcessParams(), seed=3)
    first = bank.devices(2)
    assert bank.devices(2) is first
    bank.devices(5)
    again = bank.devices(2)
    assert again is not first and again.keys() == first.keys()
    for name, latent in first.items():
        assert again[name] is not latent
        assert np.array_equal(again[name], latent)


@pytest.mark.parametrize("walk, made", [
    ([(chip, cycle) for chip in range(3) for cycle in range(4)], 3),
    ([(0, 0), (1, 0), (0, 1), (1, 1)], 4),
], ids=["in order", "alternating"])
def test_bank_fabricates_once_per_change_of_chip(monkeypatch, walk, made):
    calls = []

    def counting(entry, params, chip_seed):
        calls.append(entry.name)
        return sample_device(entry, params, chip_seed)

    monkeypatch.setattr(simchip, "sample_device", counting)
    bank = ChipBank(SMALL_BANK, ProcessParams(), seed=3)
    for chip, cycle in walk:
        bank.snapshots(chip, cycle)
    assert len(calls) == made * len(SMALL_BANK)


def test_bank_devices_refuse_a_negative_chip():
    bank = ChipBank(SMALL_BANK, ProcessParams(), seed=3)
    with pytest.raises(ValueError, match="non-negative"):
        bank.devices(-1)
    bank.devices(0)
    with pytest.raises(ValueError, match="non-negative"):
        bank.devices(-1)


def test_threads_sharing_a_bank_get_the_serial_snapshots(monkeypatch):
    """More threads than cores, each on its own chip, switching often: a
    shared slot would hand a thread another chip's bits or fabricate a chip
    again whenever its thread's turn comes back.  Tiny designs keep the time
    in the bank's own code, where the switches land."""
    designs = [make_entry(name, depth=4, width=8, mux=1, pattern="0(4)1(4)")
               for name in "ABCDEF"]
    chips, cycles = range(4), range(100)
    serial = ChipBank(designs, ProcessParams(), seed=4)
    want = {(c, k): serial.snapshots(c, k) for c in chips for k in cycles}
    calls = []

    def counting(entry, params, chip_seed):
        calls.append(entry.name)
        return sample_device(entry, params, chip_seed)

    monkeypatch.setattr(simchip, "sample_device", counting)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            shared = ChipBank(designs, ProcessParams(), seed=4)
            got = {}
            start = threading.Barrier(len(chips))

            def walk(chip):
                start.wait(timeout=10)
                for k in cycles:
                    got[chip, k] = shared.snapshots(chip, k)

            threads = [threading.Thread(target=walk, args=(c,)) for c in chips]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert got.keys() == want.keys()
            for key, snaps in want.items():
                for name, snap in snaps.items():
                    assert np.array_equal(got[key][name].bits, snap.bits), (key, name)
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 10 * len(chips) * len(designs)  # each chip once per round


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


@st.composite
def small_entries(draw):
    """A design of depth 1-64 and width 2-64 (Geometry needs it even), any orientation."""
    depth = draw(st.integers(1, 64))
    geometry = Geometry(depth=depth, width=2 * draw(st.integers(1, 32)), mux=1)
    runs = draw(st.lists(st.integers(1, 40), min_size=2, max_size=5))
    pattern = "".join(f"{k % 2}({n})" for k, n in enumerate(runs))
    orientation = draw(st.sampled_from(list(Orientation)))
    return DesignEntry(draw(st.sampled_from(["D0", "P2_a"])), geometry, orientation, pattern)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    small_entries(),
    st.sampled_from([1.0, 0.37]),
    st.sampled_from([0.0, 0.140625, 2.0]),
    st.sampled_from([0.0, 0.06, 1000.0]),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 1),
)
def test_simulator_matches_the_two_array_reference(entry, sigma_m, sigma_n, beta,
                                                   chip_seed, cycle_seed):
    """Latent and bits equal the two-array simulator's, noiseless power-ups included."""
    params = ProcessParams(sigma_mismatch=sigma_m, sigma_noise=sigma_n, beta=beta)
    latent, bits = power_up_reference(entry, params, chip_seed, cycle_seed)
    got = sample_device(entry, params, chip_seed)
    assert np.array_equal(got, latent)
    assert np.array_equal(power_up(entry, got, params, cycle_seed).bits, bits)


@settings(max_examples=4, derandomize=True, deadline=None)
@given(st.integers(0, 2**32), st.lists(st.tuples(st.integers(0, 255), st.integers(0, 9)),
                                       min_size=1, max_size=3))
def test_chip_bank_matches_the_two_array_reference(seed, points):
    """A few chips x cycles of the default floorplan, through the bank's seed paths."""
    bank = ChipBank(DEFAULT_DESIGNS, ProcessParams(), seed)
    for chip, cycle in points:
        snaps = bank.snapshots(chip, cycle)
        devices = bank.devices(chip)
        for entry in DEFAULT_DESIGNS:
            latent, bits = power_up_reference(entry, bank.params,
                                              derive_seed(seed, "chip", chip),
                                              derive_seed(seed, "cycle", chip, cycle))
            assert np.array_equal(devices[entry.name], latent)
            assert np.array_equal(snaps[entry.name].bits, bits)
