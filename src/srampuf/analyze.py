"""Turn a directory of power-up dumps into a per-design results table.

For each design: reliability (WCHD of every reconstruction cycle against
the chip's cycle-0 enrollment), the positional bias profile and its
autocorrelation, the dominant bias period and majority template, masked
Hamming weight against that template, per-bit min-entropy endpoints, and
the bias direction relative to a baseline design.

Each design's dumps load, one read per file and decoded as one stack, into
its packed readings: a ``(chips, cycles, depth * ceil(width/8))`` uint8
array of word bytes, one bit per bit, which is never unpacked whole.  Every
statistic is an exact integer count over its axes: one packed ``wchd`` call
per design XORs all reconstructions with their enrollment and popcounts
them, one packed ``mhw`` call covers every reading, and the template folds
the column sums of all readings, unpacked at most ``UNPACK_BYTES`` and 255
rows at a time as the bytes are stored; only the sums are put in bit order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .biasdetect import (
    ConstantInput,
    InsufficientData,
    NoPeriodicity,
    autocorrelation,
    bias_direction,
    dominant_period,
    fold_template,
    smooth_template,
    strongest_vector,
)
from .chipnet.dumpdir import grid, load_bits, read_plan, scan_dump_dir
from .chipnet.dumpfile import word_byte_width
from .metrics import entropy_range, fhw, mhw, wchd
from .patterns import canonical_cycle, cyclic_notation
from .report import check_row

# Per-reading bit count of the physical reference harness this workbench
# emulates; reported runs are flagged when their floorplan total differs.
REFERENCE_TOTAL_BITS = 262_320

PROFILE_MODES = ("mean", "top-chip")

# Most unpacked bytes a column sum holds at once, in at most 255 rows: uint8 sums stay exact.
UNPACK_BYTES = 1 << 20


class MissingBaseline(ValueError):
    pass


@dataclass
class DesignResult:
    row: dict  # the design's row of report.json
    profile: np.ndarray
    autocorr: np.ndarray | None

    @property
    def name(self) -> str:
        return self.row["design"]


@dataclass
class RunAnalysis:
    meta: dict
    notes: list[str]
    results: list[DesignResult] = field(default_factory=list)


def analyze_dumps(
    dump_dir,
    baseline: str = "P1_a",
    profile_mode: str = "mean",
) -> RunAnalysis:
    if profile_mode not in PROFILE_MODES:
        raise ValueError(f"profile_mode must be one of {PROFILE_MODES}")
    index = scan_dump_dir(dump_dir)
    if baseline not in index:
        raise MissingBaseline(
            f"baseline design {baseline!r} not in dumps ({sorted(index)})"
        )
    chips, cycles = grid(index)

    notes: list[str] = []
    params, seed = read_plan(dump_dir)
    if params is None:
        notes.append("no floorplan.cfg beside the dumps; process parameters unknown")

    results: list[DesignResult] = []
    total = 0
    for name in sorted(index):
        header, packed = load_bits(dump_dir, name, index[name], chips, cycles)
        width, readings = header.width, len(chips) * len(cycles)
        total += header.depth * width
        # Cycles are sorted and include 0, so index 0 is the enrollment.
        per_chip_wchd = wchd(packed[:, :1], packed[:, 1:], width).mean(axis=-1).tolist()

        # Exact integers, so ones / readings is bit for bit the mean of the 0/1 bits.
        if profile_mode == "mean":
            column_ones = _column_ones(packed.reshape(readings, -1), width)
            profile = column_ones / readings
        else:
            chip_ones = np.stack([_column_ones(chip, width) for chip in packed])
            column_ones = chip_ones.sum(axis=0, dtype=np.uint32)
            chip_profiles = chip_ones / len(cycles)
            # A copy, so the result does not keep every chip's profile alive.
            profile = chip_profiles[strongest_vector(chip_profiles)].copy()

        autocorr = template = period = pattern = None
        direction = 0
        try:
            autocorr = autocorrelation(profile)
            found = dominant_period(autocorr, profile.size)
            template = smooth_template(fold_template(column_ones, readings, found))
        except (ConstantInput, NoPeriodicity, InsufficientData) as e:
            notes.append(f"{name}: no reliable bias period ({e})")

        if template is not None:
            canonical, _ = canonical_cycle(template)
            period, pattern = found, cyclic_notation(canonical)
            # The template phase is anchored to readout position 0 exactly
            # like the profile, so the direction is the zero-lag correlation
            # sign against the canonical (0-leading) cycle.
            reps = -(-profile.size // canonical.size)
            tiled = np.tile(canonical, reps)[: profile.size].astype(np.float64)
            try:
                direction = bias_direction(profile, tiled)  # times the baseline's, below
            except ConstantInput:  # smoothing erased every run but one
                notes.append(f"{name}: template {pattern} is constant; BD column is 0")
            per_chip_mhw = mhw(packed, template, width).mean(axis=-1).tolist()
        else:
            per_chip_mhw = [fhw(chip, width) for chip in packed]
            notes.append(f"{name}: reporting raw FHW in the MHW column")

        mhw_lo, mhw_hi = min(per_chip_mhw), max(per_chip_mhw)
        entropy_lo, entropy_hi = entropy_range(mhw_lo, mhw_hi)
        row = {
            "design": name, "depth": header.depth,
            "width": width, "mux": header.mux,
            "class": header.speed_class, "orientation": header.orient,
            "wchd_min": min(per_chip_wchd), "wchd_max": max(per_chip_wchd),
            "mhw_min": mhw_lo, "mhw_max": mhw_hi,
            "entropy_min": entropy_lo, "entropy_max": entropy_hi,
            "period": period, "pattern": pattern,
            "direction": direction,
        }
        check_row(row)
        results.append(DesignResult(row, profile, autocorr))

    base_dir = next(r.row["direction"] for r in results if r.name == baseline)
    if base_dir == 0:
        notes.append(f"baseline {baseline} has no bias direction; BD column is 0")
    for r in results:
        r.row["direction"] *= base_dir

    if total != REFERENCE_TOTAL_BITS:
        notes.append(
            f"floorplan reads {total} bits per chip per cycle; the reference "
            f"harness reports {REFERENCE_TOTAL_BITS} (difference "
            f"{REFERENCE_TOTAL_BITS - total:+d})"
        )

    meta = {
        "baseline": baseline,
        "profile_mode": profile_mode,
        "chips": len(chips),
        "cycles": len(cycles),
        "designs": len(results),
        "total_bits_per_reading": total,
        "seed": seed,
    }
    if params is not None:
        meta["params"] = {**vars(params), "gradient": list(params.gradient)}
    return RunAnalysis(meta=meta, notes=notes, results=results)


def _column_ones(rows: np.ndarray, width: int) -> np.ndarray:
    """Ones at each bit position over packed ``rows``, unpacking a block of rows at a time.

    Each word unpacks most significant bit first; its sums are then reversed
    into bit order and cut to ``width``.
    """
    bits = rows.shape[-1] * 8
    block = min(255, max(1, UNPACK_BYTES // bits))
    ones = np.zeros(bits, dtype=np.uint32)
    for start in range(0, len(rows), block):
        ones += np.unpackbits(rows[start:start + block], axis=-1).sum(axis=0, dtype=np.uint8)
    return ones.reshape(-1, word_byte_width(width) * 8)[:, ::-1][:, :width].ravel()


def analysis_to_report(run: RunAnalysis) -> dict:
    """JSON-ready report structure (drops the bulky plot vectors)."""
    return {"meta": run.meta, "notes": run.notes, "rows": [r.row for r in run.results]}


# Element i holds the ASCII bytes of "%04d" % i, so one gather moves four digits.
_DIGITS4 = np.stack([np.tile(np.repeat(np.frombuffer(b"0123456789", dtype=np.uint8), 10**k),
                             10 ** (3 - k)) for k in (3, 2, 1, 0)],
                    axis=1).view(np.uint32).ravel()


def _index_digits(n: int) -> np.ndarray:
    """Zero-padded decimal digits of 0..n-1 as ASCII, one uint8 row per number."""
    groups = []
    rest = np.arange(n)
    while True:
        rest, low = np.divmod(rest, 10_000)
        groups.insert(0, _DIGITS4[low].view(np.uint8).reshape(n, 4))
        if not rest.any():
            return np.concatenate(groups, axis=1)


def _write_columns(path: Path, title: str, values: np.ndarray, index_digits: np.ndarray) -> None:
    """``title`` then one "%d %.8f" line per element, in one write.

    ``index_digits`` holds at least ``len(values)`` rows of ``_index_digits``.
    Each value prints from its count of 1e-8 units, exactly as "%.8f" rounds
    it.  Profiles lie in [0, 1] and autocorrelations in [-1, 1]; a value that
    is NaN, infinite or whose count rounds to 1e9 or more is refused before
    any write.
    """
    scaled = np.abs(values) * 1e8
    units = np.rint(scaled)
    if not (units < 1e9).all():
        raise ValueError(f"{path}: a value is NaN, infinite or rounds to 10 or more")
    # rint sees the product rounded to a double, "%.8f" the exact value.
    # Rounding is monotonic and every half unit below 1e9 is a double, so
    # the two differ only where the product is exactly a half unit (the
    # double nearest 0.123456785 gives 12345678.5): such rows take "%.8f".
    for i in np.flatnonzero(np.abs(scaled - units) == 0.5).tolist():
        units[i] = int((b"%.8f" % abs(values[i])).replace(b".", b""))
    whole, fraction = np.divmod(units.astype(np.int64), 10**8)
    high, low = np.divmod(fraction, 10**4)
    negative = np.signbit(values)  # -0.0 and -1e-12 print as -0.00000000
    signed = bool(negative.any())
    # Each row: " ", a sign column only when some value is negative (NUL
    # beside the others), the units digit, ".", eight digits and "\n".
    tail = np.empty((len(values), 12 + signed), dtype=np.uint8)
    tail[:, 0] = ord(" ")
    if signed:
        tail[:, 1] = np.where(negative, ord("-"), 0)
    tail[:, -11] = whole + ord("0")
    tail[:, -10] = ord(".")
    tail[:, -9:-5].view(np.uint32)[:, 0] = _DIGITS4[high]
    tail[:, -5:-1].view(np.uint32)[:, 0] = _DIGITS4[low]
    tail[:, -1] = ord("\n")
    blocks = [np.frombuffer(title.encode(), dtype=np.uint8)]
    width, start = 1, 0
    while start < len(values):  # one block per index width: 0-9, 10-99, ...
        stop = min(10**width, len(values))
        blocks.append(np.concatenate([index_digits[start:stop, -width:], tail[start:stop]],
                                     axis=1).ravel())
        width, start = width + 1, stop
    text = np.concatenate(blocks)
    if signed:
        text = text[text != 0]
    with open(path, "wb") as fh:
        fh.write(text)


def write_plot_data(run: RunAnalysis, plot_dir) -> list[Path]:
    """Per-design profile and autocorrelation as two-column text files."""
    out = Path(plot_dir)
    out.mkdir(parents=True, exist_ok=True)
    index_digits = _index_digits(max((len(v) for r in run.results
                                      for v in (r.profile, r.autocorr) if v is not None),
                                     default=0))
    written = []
    for r in run.results:
        path = out / f"{r.name}_profile.dat"
        _write_columns(path, "# readout-index one-probability\n", r.profile, index_digits)
        written.append(path)
        if r.autocorr is not None:
            path = out / f"{r.name}_autocorr.dat"
            _write_columns(path, "# lag autocorrelation\n", r.autocorr, index_digits)
            written.append(path)
    return written
