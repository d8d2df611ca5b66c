"""Autocorrelation, period detection, template folding, and bias direction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import autocorr_direct, brute_force_period, majority_template
from srampuf.biasdetect import (
    ConstantInput,
    InsufficientData,
    NoPeriodicity,
    autocorrelation,
    bias_direction,
    dominant_period,
    extract_template,
    smooth_template,
    strongest_vector,
)
from srampuf.patterns import parse_run_length

# planted period -> generating pattern, exercised at flip noise up to 20%
PLANTED_CYCLES = {
    16: "0(7)1(9)",
    29: "0(14)1(15)",
    32: "0(16)1(16)",
    58: "0(29)1(29)",
    64: "0(16)1(32)0(32)",
    128: "0(32)1(64)0(64)",
}


def square_wave(period, n):
    half = period // 2
    return np.tile(np.r_[np.zeros(half), np.ones(period - half)], -(-n // period))[:n]


def noisy_tiling(planted, n, seed, flip_p):
    pat = parse_run_length(PLANTED_CYCLES[planted])
    cyc = pat.bits(pat.period)
    rng = np.random.default_rng(seed)
    base = np.tile(cyc, -(-n // planted))[:n]
    base = np.roll(base, int(rng.integers(0, planted)))
    return base ^ (rng.random(n) < flip_p).astype(np.uint8)


def test_autocorrelation_normalizes_lag_zero():
    v = np.random.default_rng(3).integers(0, 2, size=100)
    r = autocorrelation(v)
    assert r[0] == pytest.approx(1.0)
    assert r.size == 51


def test_autocorrelation_of_alternating_vector():
    v = np.tile([0, 1], 512)  # N = 1024
    r = autocorrelation(v)
    n = v.size
    assert r[1] == pytest.approx(-(n - 1) / n, abs=1e-12)
    assert r[2] == pytest.approx((n - 2) / n, abs=1e-12)


def test_autocorrelation_matches_direct_summation():
    v = np.random.default_rng(8).integers(0, 2, size=512)
    r = autocorrelation(v)
    expect = autocorr_direct(v)
    for lag, value in expect.items():
        assert r[lag] == pytest.approx(value, abs=1e-9)


def test_square_wave_peak_sits_at_its_period():
    v = square_wave(64, 8192)
    r = autocorrelation(v)
    assert int(np.argmax(r[1:])) + 1 == 64


def test_autocorrelation_is_complement_invariant():
    v = np.random.default_rng(9).integers(0, 2, size=300)
    assert np.allclose(autocorrelation(v), autocorrelation(1 - v), atol=1e-12)


def test_autocorrelation_input_validation():
    with pytest.raises(InsufficientData):
        autocorrelation([0, 1, 0])
    with pytest.raises(ConstantInput):
        autocorrelation(np.ones(64))


def test_dominant_period_on_clean_square_waves():
    for period in (32, 58):
        v = square_wave(period, 8192)
        assert dominant_period(autocorrelation(v), v.size) == period


def test_dominant_period_rejects_iid_noise():
    for seed in (1, 2, 3):
        v = np.random.default_rng(seed).integers(0, 2, size=8192)
        with pytest.raises(NoPeriodicity):
            dominant_period(autocorrelation(v), v.size)


def test_dominant_period_input_validation():
    with pytest.raises(InsufficientData):
        dominant_period(np.ones(4), 8)
    r = autocorrelation(square_wave(8, 64))
    with pytest.raises(InsufficientData):
        dominant_period(r, 3)  # admissible band [2, n/2] is empty


def test_dominant_period_agrees_with_phase_folding_oracle():
    """100 seeded noisy tilings, planted periods 16..128, flips up to 20%."""
    periods = sorted(PLANTED_CYCLES)
    for k in range(100):
        planted = periods[k % 6]
        noisy = noisy_tiling(planted, 8192, seed=777000 + k, flip_p=0.02 * (k % 11))
        detected = dominant_period(autocorrelation(noisy), noisy.size)
        assert detected == planted
        assert brute_force_period(noisy) == planted


def test_extract_template_majority_of_constants():
    pat = parse_run_length("0(16)1(16)")
    vectors = [pat.bits(320), pat.bits(320)]
    expect = np.r_[np.zeros(16), np.ones(16)].astype(np.uint8)
    assert np.array_equal(extract_template(vectors, 32), expect)


def test_extract_template_survives_ten_percent_flips():
    pat = parse_run_length("0(16)1(16)")
    rng = np.random.default_rng(1234)
    base = pat.bits(320)
    vectors = [base ^ (rng.random(base.size) < 0.10).astype(np.uint8)
               for _ in range(50)]
    got = extract_template(vectors, 32)
    assert np.array_equal(got, pat.bits(32))
    assert np.array_equal(got, majority_template(vectors, 32))


def test_extract_template_all_zero_inputs():
    got = extract_template([np.zeros(64, dtype=np.uint8)] * 8, 8)
    assert not got.any()


def test_extract_template_takes_one_vector_or_a_matrix():
    rng = np.random.default_rng(55)
    v = rng.integers(0, 2, size=200).astype(np.uint8)
    assert np.array_equal(extract_template(v, 7), majority_template([v], 7))
    rows = rng.integers(0, 2, size=(4, 129)).astype(np.uint8)
    assert np.array_equal(extract_template(rows, 7), majority_template(rows, 7))


def test_extract_template_input_validation():
    with pytest.raises(ValueError):
        extract_template([np.zeros(64)], 0)
    with pytest.raises(InsufficientData):
        extract_template([], 8)
    with pytest.raises(InsufficientData):
        extract_template(np.zeros((0, 64), dtype=np.uint8), 8)
    with pytest.raises(InsufficientData):
        extract_template([np.zeros(100, dtype=np.uint8)], 32)  # 3-4 samples per phase
    with pytest.raises(ValueError):
        extract_template(np.zeros((2, 4, 64), dtype=np.uint8), 8)


def test_smooth_template_drops_single_phase_glitches():
    t = np.r_[np.zeros(16), np.ones(16)].astype(np.uint8)
    glitched = t.copy()
    glitched[7] = 1
    assert np.array_equal(smooth_template(glitched), t)
    # real runs of window length survive
    runs = np.array([0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1], dtype=np.uint8)
    assert np.array_equal(smooth_template(runs), runs)


def test_smooth_template_leaves_templates_of_three_phases_or_fewer():
    for tiny in ([1, 0], [0, 1, 0]):
        assert np.array_equal(smooth_template(tiny), tiny)


def test_bias_direction_sign_conventions():
    rng = np.random.default_rng(424242)
    x = square_wave(32, 4096) + rng.normal(0, 0.05, 4096)
    assert bias_direction(x, x) == 1
    assert bias_direction(1 - x, x) == -1
    assert bias_direction(np.roll(x, 5), x) == 1


def test_bias_direction_zero_lag_only():
    rng = np.random.default_rng(424242)
    x = square_wave(32, 4096) + rng.normal(0, 0.05, 4096)
    # half a period off is anti-correlated at zero lag, in phase at lag 16
    assert bias_direction(np.roll(x, 16), x) == -1


def test_bias_direction_returns_zero_for_unrelated_noise():
    rng = np.random.default_rng(424242)
    assert bias_direction(rng.random(4096), rng.random(4096)) == 0


def test_bias_direction_input_validation():
    with pytest.raises(InsufficientData):
        bias_direction(np.arange(4), np.arange(4))
    with pytest.raises(ConstantInput):
        bias_direction(np.ones(64), np.random.default_rng(0).random(64))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_bias_direction_self_and_reflection(seed):
    rng = np.random.default_rng(seed)
    x = rng.random(256)
    if np.ptp(x) == 0:  # pragma: no cover - essentially impossible
        return
    assert bias_direction(x, x) == 1
    assert bias_direction(1 - x, x) == -1


def test_strongest_vector_prefers_periodic_rows():
    rng = np.random.default_rng(99)
    rows = [rng.integers(0, 2, size=2048) for _ in range(4)]
    rows[2] = square_wave(64, 2048).astype(np.int64)
    assert strongest_vector(np.array(rows)) == 2
    with pytest.raises(ValueError):
        strongest_vector(np.zeros(16))
    with pytest.raises(ValueError):
        strongest_vector(np.zeros((0, 16)))


def test_strongest_vector_skips_constant_rows():
    rng = np.random.default_rng(100)
    rows = np.vstack([np.ones(1024), square_wave(32, 1024), rng.integers(0, 2, 1024)])
    assert strongest_vector(rows) == 1
