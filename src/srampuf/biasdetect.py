"""Detection of layout-correlated periodic bias in power-up data.

The pipeline: concatenate readings in readout order, estimate the
per-position one-probability profile, autocorrelate it, locate the
dominant period in the autocorrelation spectrum, fold the raw bits at
that period into a majority template, and correlate profiles to decide
which way the bias pushes relative to a baseline design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ConstantInput(ValueError):
    """Zero-variance input where structure detection needs contrast."""


class NoPeriodicity(ValueError):
    """No statistically significant periodic component found."""


class InsufficientData(ValueError):
    """Not enough observations for the requested statistic."""


@dataclass(frozen=True)
class BiasReport:
    """Outcome of bias detection for one design."""

    detected_period: int | None
    template: tuple[int, ...] | None
    notation: str | None
    direction: int  # -1, 0, +1 vs baseline


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def autocorrelation(v, max_lag: int | None = None) -> np.ndarray:
    """Mean-removed autocorrelation r(0..N/2), normalized so r(0) = 1.

    Biased estimator (no per-lag rescaling) computed via FFT; |r| stays
    bounded and well behaved at long lags.
    """
    x = np.asarray(v, dtype=np.float64).ravel()
    n = x.size
    if n < 4:
        raise InsufficientData(f"vector of {n} values is too short")
    if max_lag is None:
        max_lag = n // 2
    if not 0 < max_lag <= n // 2:
        raise ValueError(f"max_lag {max_lag} outside (0, {n // 2}]")
    x = x - x.mean()
    nfft = _next_pow2(2 * n)
    spec = np.fft.rfft(x, nfft)
    acf = np.fft.irfft(spec * np.conj(spec), nfft)[: max_lag + 1]
    if acf[0] <= 0:
        raise ConstantInput("input has zero variance")
    return acf / acf[0]


def dominant_period(
    r,
    n: int,
    pad_factor: int = 8,
    significance: float = 5.0,
) -> int:
    """Period of the strongest repeating component of an autocorrelation.

    ``r`` comes from :func:`autocorrelation`; ``n`` is the original vector
    length, bounding the admissible periods to [2, n/2].  The peak of the
    zero-padded magnitude spectrum of r must stand ``significance`` times
    above the in-band median; the (generally fractional) spectral period
    then snaps to the nearby integer whose multiples carry the highest
    mean autocorrelation, which is exact for periods that do not divide
    the transform length.
    """
    r = np.asarray(r, dtype=np.float64).ravel()
    if r.size < 8:
        raise InsufficientData(f"autocorrelation of {r.size} lags is too short")
    min_period = 2
    max_period = min(n // 2, r.size - 1)
    if max_period < min_period:
        raise InsufficientData(f"no admissible periods for n={n}")
    nfft = _next_pow2(pad_factor * r.size)
    spec = np.abs(np.fft.rfft(r - r.mean(), nfft))
    k_lo = max(1, -(-nfft // max_period))
    k_hi = min(spec.size - 1, nfft // min_period)
    if k_lo > k_hi:
        raise NoPeriodicity(f"period band [{min_period}, {max_period}] is empty")
    band = spec[k_lo : k_hi + 1]
    k_star = k_lo + int(np.argmax(band))
    floor = float(np.median(band))
    if spec[k_star] <= 0 or spec[k_star] < significance * floor:
        raise NoPeriodicity(
            f"spectral peak {spec[k_star]:.3g} below "
            f"{significance} x median {floor:.3g}"
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


def extract_template(vectors, period: int, min_samples: int = 8) -> np.ndarray:
    """Fold bit vectors at a period and take the per-phase majority.

    ``vectors`` is an iterable of 1-d bit arrays, each folded from its own
    position zero (lengths may differ).  Ties resolve to 0.  Raises
    InsufficientData when any phase collects fewer than ``min_samples``
    observations in total.
    """
    if period < 1:
        raise ValueError(f"period must be positive, got {period}")
    arrays = [np.asarray(v).reshape(-1) for v in vectors]
    if not arrays:
        raise InsufficientData("no vectors given")
    ones = np.zeros(period, dtype=np.int64)
    total = np.zeros(period, dtype=np.int64)
    for arr in arrays:
        phases = np.arange(arr.size) % period
        ones += np.bincount(phases, weights=arr, minlength=period).astype(np.int64)
        total += np.bincount(phases, minlength=period)
    if total.min() < min_samples:
        raise InsufficientData(
            f"only {int(total.min())} samples in the thinnest of {period} phases"
        )
    return (2 * ones > total).astype(np.uint8)


def smooth_template(template, window: int = 3) -> np.ndarray:
    """Cyclic majority vote over a small window, to drop one-phase glitches.

    Useful when the imprint amplitude sits near the detection floor and the
    per-phase majority occasionally lands on the wrong side; any real run
    of at least ``window`` phases survives unchanged.
    """
    t = np.asarray(template).astype(np.int64).ravel()
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and positive, got {window}")
    if t.size <= window:
        return t.astype(np.uint8)
    half = window // 2
    votes = sum(np.roll(t, k) for k in range(-half, half + 1))
    return (2 * votes > window).astype(np.uint8)


def bias_direction(profile, baseline, max_lag: int = 256) -> int:
    """Sign of the strongest cross-correlation between two bias profiles.

    Both series are truncated to the shorter length and mean-removed; the
    normalized cross-correlation is scanned over lags up to ``max_lag`` in
    either direction and the largest magnitude wins (ties go to the lag
    closest to zero).  Returns +1 or -1, or 0 when the best value stays
    below the significance threshold min(0.5, 4.5/sqrt(L)).
    """
    x = np.asarray(profile, dtype=np.float64).ravel()
    y = np.asarray(baseline, dtype=np.float64).ravel()
    n = min(x.size, y.size)
    if n < 8:
        raise InsufficientData(f"overlap of {n} values is too short")
    x = x[:n] - x[:n].mean()
    y = y[:n] - y[:n].mean()
    norm = np.sqrt(float(x @ x) * float(y @ y))
    if norm == 0:
        raise ConstantInput("a profile has zero variance")
    max_lag = min(max_lag, n - 1)
    nfft = _next_pow2(2 * n)
    cc = np.fft.irfft(np.fft.rfft(x, nfft) * np.conj(np.fft.rfft(y, nfft)), nfft)
    lags = np.arange(-max_lag, max_lag + 1)
    corr = cc[lags % nfft] / norm
    best = np.lexsort((np.abs(lags), -np.abs(corr)))[0]
    threshold = min(0.5, 4.5 / np.sqrt(n))
    if abs(corr[best]) < threshold:
        return 0
    return 1 if corr[best] > 0 else -1


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
