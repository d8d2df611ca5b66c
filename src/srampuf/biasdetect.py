"""Detection of layout-correlated periodic bias in power-up data.

The pipeline: concatenate readings in readout order, estimate the
per-position one-probability profile, autocorrelate it, locate the
dominant period in the autocorrelation spectrum (transformed over
``PAD_FACTOR`` times the lag span, rounded up to a power of two, peak
``SIGNIFICANCE`` times above the in-band median), fold the raw bits at
that period into a majority template (at least ``MIN_SAMPLES``
observations per phase) smoothed by a three-phase vote, and take the
zero-lag correlation of two profiles to decide which way the bias pushes
relative to a baseline design.
"""

from __future__ import annotations

import numpy as np

# Zero-padding of the autocorrelation spectrum, in multiples of its lag span.
PAD_FACTOR = 8
# A period counts when its spectral peak is this many times the in-band median.
SIGNIFICANCE = 5.0
# Fewest observations a template phase may be voted from.
MIN_SAMPLES = 8


class ConstantInput(ValueError):
    """Zero-variance input where structure detection needs contrast."""


class NoPeriodicity(ValueError):
    """No statistically significant periodic component found."""


class InsufficientData(ValueError):
    """Not enough observations for the requested statistic."""


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def _centred(x: np.ndarray, what: str) -> np.ndarray:
    """``x`` less its mean; a constant ``x`` raises, even one whose mean rounds."""
    if x.min() == x.max():
        raise ConstantInput(f"{what} has zero variance")
    return x - x.mean()


def autocorrelation(v) -> np.ndarray:
    """Mean-removed autocorrelation r(0..N/2), normalized so r(0) = 1.

    Biased estimator (no per-lag rescaling) computed via FFT; |r| stays
    bounded and well behaved at long lags.
    """
    x = np.asarray(v, dtype=np.float64).ravel()
    n = x.size
    if n < 4:
        raise InsufficientData(f"vector of {n} values is too short")
    x = _centred(x, "input")
    nfft = _next_pow2(2 * n)
    spec = np.fft.rfft(x, nfft)
    acf = np.fft.irfft(spec * np.conj(spec), nfft)[: n // 2 + 1]
    if acf[0] <= 0:
        raise ConstantInput("input has zero variance")
    return acf / acf[0]


def dominant_period(r, n: int) -> int:
    """Period of the strongest repeating component of an autocorrelation.

    ``r`` comes from :func:`autocorrelation`; ``n`` is the original vector
    length, bounding the admissible periods to [2, n/2].  The magnitude
    spectrum of r is taken over ``PAD_FACTOR`` times its lag span (the
    ``r.size - 1`` lags past zero), rounded up to a power of two; its peak
    must stand ``SIGNIFICANCE`` times above the in-band median; the
    (generally fractional) spectral period then snaps to the nearby integer whose
    multiples carry the highest mean autocorrelation, which is exact for
    periods that do not divide the transform length.
    """
    r = np.asarray(r, dtype=np.float64).ravel()
    if r.size < 8:
        raise InsufficientData(f"autocorrelation of {r.size} lags is too short")
    min_period = 2
    max_period = min(n // 2, r.size - 1)
    if max_period < min_period:
        raise InsufficientData(f"no admissible periods for n={n}")
    nfft = _next_pow2(PAD_FACTOR * (r.size - 1))
    spec = np.abs(np.fft.rfft(r - r.mean(), nfft))
    k_lo = max(1, -(-nfft // max_period))
    k_hi = min(spec.size - 1, nfft // min_period)
    if k_lo > k_hi:
        raise NoPeriodicity(f"period band [{min_period}, {max_period}] is empty")
    band = spec[k_lo : k_hi + 1]
    k_star = k_lo + int(np.argmax(band))
    peak = spec[k_star]
    floor = float(np.median(band, overwrite_input=True))  # reorders band, a view of spec
    if peak <= 0 or peak < SIGNIFICANCE * floor:
        raise NoPeriodicity(
            f"spectral peak {peak:.3g} below "
            f"{SIGNIFICANCE} x median {floor:.3g}"
        )
    p0 = nfft / k_star
    best_p, best_score = 0, -np.inf
    lo = max(min_period, int(np.floor(p0)) - 2)
    hi = min(max_period, int(np.ceil(p0)) + 2)
    for p in range(lo, hi + 1):
        score = float(np.mean(r[p::p]))
        if score > best_score:
            best_p, best_score = p, score
    if best_p == 0:
        raise NoPeriodicity(f"no integer period near {p0:.2f} inside [2, {max_period}]")
    return best_p


def extract_template(vectors, period: int) -> np.ndarray:
    """Fold bit vectors at a period and take the per-phase majority.

    ``vectors`` is a 2-d matrix with one vector per row (a 1-d vector is
    one row); every row folds from position zero, so the column sums fold
    in one pass.  Ties resolve to 0.  Raises InsufficientData when any
    phase collects fewer than ``MIN_SAMPLES`` observations in total.
    """
    mat = np.atleast_2d(np.asarray(vectors))
    if mat.ndim != 2:
        raise ValueError(f"expected one vector or a 2-d matrix, got shape {mat.shape}")
    return fold_template(mat.sum(axis=0, dtype=np.int64), mat.shape[0], period)


def fold_template(column_ones, vectors: int, period: int) -> np.ndarray:
    """``extract_template`` of ``vectors`` rows, given only their column sums."""
    if period < 1:
        raise ValueError(f"period must be positive, got {period}")
    phases = np.arange(len(column_ones)) % period
    ones = np.bincount(phases, weights=column_ones, minlength=period)
    total = vectors * np.bincount(phases, minlength=period)
    if total.min() < MIN_SAMPLES:
        raise InsufficientData(
            f"only {int(total.min())} samples in the thinnest of {period} phases"
        )
    return (2 * ones > total).astype(np.uint8)


def smooth_template(template) -> np.ndarray:
    """Cyclic three-phase majority vote, to drop one-phase glitches.

    Useful when the imprint amplitude sits near the detection floor and the
    per-phase majority occasionally lands on the wrong side; any real run
    of at least three phases survives unchanged.
    """
    t = np.asarray(template).astype(np.int64).ravel()
    if t.size <= 3:
        return t.astype(np.uint8)
    votes = np.roll(t, -1) + t + np.roll(t, 1)
    return (votes > 1).astype(np.uint8)


def bias_direction(profile, baseline) -> int:
    """Sign of the zero-lag correlation between two bias profiles.

    Both series are truncated to the shorter length and mean-removed; their
    normalized correlation at zero lag, ``x . y / norm``, gives +1 or -1,
    or 0 when its magnitude stays below the significance threshold
    min(0.5, 4.5/sqrt(L)).  The sums are plain reductions of the products:
    a BLAS dot product would wake worker threads for one short vector.
    """
    x = np.asarray(profile, dtype=np.float64).ravel()
    y = np.asarray(baseline, dtype=np.float64).ravel()
    n = min(x.size, y.size)
    if n < 8:
        raise InsufficientData(f"overlap of {n} values is too short")
    x = _centred(x[:n], "a profile")
    y = _centred(y[:n], "a profile")
    norm = np.sqrt(float(np.add.reduce(x * x)) * float(np.add.reduce(y * y)))
    if norm == 0:
        raise ConstantInput("a profile has zero variance")
    corr = float(np.add.reduce(x * y)) / norm
    if abs(corr) < min(0.5, 4.5 / np.sqrt(n)):
        return 0
    return 1 if corr > 0 else -1


def strongest_vector(rows) -> int:
    """Index of the row whose autocorrelation has the tallest off-zero peak."""
    mat = np.asarray(rows, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise ValueError(f"expected a non-empty 2-d array, got shape {mat.shape}")
    best, best_peak = 0, -np.inf
    for i in range(mat.shape[0]):
        try:
            r = autocorrelation(mat[i])
        except ConstantInput:
            continue
        peak = float(r[2:].max()) if r.size > 2 else -np.inf
        if peak > best_peak:
            best, best_peak = i, peak
    return best
