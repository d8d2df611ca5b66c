"""Independent reference implementations used to pin expected test values.

Everything here deliberately avoids the package's own code paths: direct
summation instead of FFT, per-phase folding instead of spectral peaks,
string assembly instead of integer shifting.  Slow but obviously correct.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np


def autocorr_direct(v, lags=None):
    """Mean-removed, biased-normalized autocorrelation by direct summation.

    r(l) = sum_i (v_i - mean)(v_{i+l} - mean) / sum_i (v_i - mean)^2
    over the overlapping samples, matching the zero-padded convention.
    """
    x = np.asarray(v, dtype=np.float64).ravel()
    x = x - x.mean()
    denom = float(np.dot(x, x))
    if lags is None:
        lags = range(x.size // 2 + 1)
    return {int(l): float(np.dot(x[: x.size - l], x[l:])) / denom for l in lags}


def fold_score(v, period):
    """Between-phase variance of phase-folded means, sampling-debiased.

    The raw between-phase variance of the folded means overstates the
    structure by the mean sampling variance sigma_phi^2 / n_phi of each
    phase mean; subtracting it makes pure noise score ~zero so that a
    planted period and its multiples score equal in expectation.
    """
    x = np.asarray(v, dtype=np.float64).ravel()
    grand = x.mean()
    phases = np.arange(x.size) % period
    n = np.bincount(phases, minlength=period)
    s1 = np.bincount(phases, weights=x, minlength=period)
    s2 = np.bincount(phases, weights=x * x, minlength=period)
    mean = s1 / n
    between = (mean - grand) ** 2
    # unbiased per-phase variance, guarded for single-sample phases
    var = np.where(n > 1, (s2 / n - mean**2) * n / np.maximum(n - 1, 1), 0.0)
    return float(np.mean(between - var / n))


def brute_force_period(v, max_period=256):
    """Phase-folding period search: smallest period within 5% of the top score.

    Scores every candidate; multiples of the true period tie with it in
    expectation, so the fundamental is the smallest member of the near-tie
    group.
    """
    x = np.asarray(v, dtype=np.float64).ravel()
    top = min(max_period, x.size // 2)
    scores = {p: fold_score(x, p) for p in range(2, top + 1)}
    best = max(scores.values())
    if best <= 0:
        return None
    for p in sorted(scores):
        if scores[p] >= 0.95 * best:
            return p
    return None


def majority_template(vectors, period):
    """Per-phase majority across vectors, ties to 0; plain Counter loop."""
    counts = [Counter() for _ in range(period)]
    for vec in vectors:
        for i, bit in enumerate(np.asarray(vec).ravel().tolist()):
            counts[i % period][int(bit)] += 1
    return np.array(
        [1 if c[1] > c[0] else 0 for c in counts],
        dtype=np.uint8,
    )


def assemble_frame(data_bits):
    """Hand bit-assembly of a 9-byte frame: 101 + 64 data bits + 010 + 00."""
    stream = "101" + "".join(str(b) for b in data_bits) + "010" + "00"
    assert len(stream) == 72
    return int(stream, 2).to_bytes(9, "big")


_ORACLE_RUN = re.compile(r"([01])\((\d+)\)")


def pattern_bit(text, k):
    """Bit k of a run-length pattern, by literal run walking."""
    runs = [(int(b), int(n)) for b, n in _ORACLE_RUN.findall(text)]
    if len(runs) % 2 and len(runs) > 1:
        offset, block = runs[0], runs[1:]
    else:
        offset, block = None, runs
    expanded = []
    if offset:
        expanded += [offset[0]] * offset[1]
    cycle = []
    for bit, length in block:
        cycle += [bit] * length
    while len(expanded) <= k:
        expanded += cycle
    return expanded[k]


def parse_rendered_table(text):
    """Cells of a rendered results table as dicts keyed by column header."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    headers = [h.strip() for h in lines[0].split(" | ")]
    assert not set(lines[1]) - set("-+"), "missing header rule"
    rows = []
    for ln in lines[2:]:
        cells = [c.strip() for c in ln.split(" | ")]
        assert len(cells) == len(headers), ln
        rows.append(dict(zip(headers, cells)))
    return rows
