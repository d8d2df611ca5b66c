"""Turn a directory of power-up dumps into a per-design results table.

For each design: reliability (WCHD of every reconstruction cycle against
the chip's cycle-0 enrollment), the positional bias profile and its
autocorrelation, the dominant bias period and majority template, masked
Hamming weight against that template, per-bit min-entropy endpoints, and
the bias direction relative to a baseline design.

Each design's dumps load, one read per file, into a ``(chips, cycles,
cells)`` uint8 bit tensor, and every statistic is a reduction over its
axes: one ``wchd`` call per design compares all reconstructions with their
enrollment, one ``mhw`` call covers every reading, and the template folds
the column sums of all readings at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .biasdetect import (
    BiasReport,
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
from .metrics import MetricsRow, entropy_range, fhw, mhw, wchd
from .patterns import canonical_cycle, cyclic_notation

# Per-reading bit count of the physical reference harness this workbench
# emulates; reported runs are flagged when their floorplan total differs.
REFERENCE_TOTAL_BITS = 262_320

PROFILE_MODES = ("mean", "top-chip")


class MissingBaseline(ValueError):
    pass


@dataclass
class DesignResult:
    name: str
    depth: int
    width: int
    mux: int
    speed_class: str
    orientation: str
    metrics: MetricsRow
    bias: BiasReport
    profile: np.ndarray
    autocorr: np.ndarray | None


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
    directions: dict[str, int] = {}
    total = 0
    for name in sorted(index):
        header, bits = load_bits(name, index[name], chips, cycles)
        rows = bits.reshape(-1, bits.shape[2])
        total += bits.shape[2]
        # Cycles are sorted and include 0, so index 0 is the enrollment.
        per_chip_wchd = wchd(bits[:, :1], bits[:, 1:]).mean(axis=-1).tolist()

        # Exact integers, so sums / rows is bit for bit rows.mean(axis=0).
        column_ones = rows.sum(axis=0, dtype=np.int64)
        if profile_mode == "mean":
            profile = column_ones / rows.shape[0]
        else:
            chip_profiles = bits.mean(axis=1)
            profile = chip_profiles[strongest_vector(chip_profiles)]

        autocorr = None
        bias = BiasReport(detected_period=None, template=None, notation=None,
                          direction=0)
        template = None
        directions[name] = 0
        try:
            autocorr = autocorrelation(profile)
            period = dominant_period(autocorr, profile.size)
            template = smooth_template(fold_template(column_ones, rows.shape[0], period))
            canonical, _ = canonical_cycle(template)
            bias = BiasReport(
                detected_period=period,
                template=tuple(int(b) for b in canonical),
                notation=cyclic_notation(canonical),
                direction=0,  # filled in after the baseline pass
            )
        except (ConstantInput, NoPeriodicity, InsufficientData) as e:
            notes.append(f"{name}: no reliable bias period ({e})")

        if template is not None:
            # The template phase is anchored to readout position 0 exactly
            # like the profile, so the direction is the zero-lag correlation
            # sign against the canonical (0-leading) cycle.
            reps = -(-profile.size // canonical.size)
            tiled = np.tile(canonical, reps)[: profile.size].astype(np.float64)
            try:
                directions[name] = bias_direction(profile, tiled)
            except ConstantInput:  # smoothing erased every run but one
                notes.append(f"{name}: template {bias.notation} is constant; BD column is 0")
            per_chip_mhw = mhw(bits, template).mean(axis=-1).tolist()
        else:
            per_chip_mhw = [fhw(chip_bits) for chip_bits in bits]
            notes.append(f"{name}: reporting raw FHW in the MHW column")

        mhw_lo, mhw_hi = min(per_chip_mhw), max(per_chip_mhw)
        entropy_lo, entropy_hi = entropy_range(mhw_lo, mhw_hi)
        row = MetricsRow(
            design=name,
            wchd_min=min(per_chip_wchd),
            wchd_max=max(per_chip_wchd),
            mhw_min=mhw_lo,
            mhw_max=mhw_hi,
            entropy_min=entropy_lo,
            entropy_max=entropy_hi,
        )
        results.append(DesignResult(
            name=name,
            depth=header.depth,
            width=header.width,
            mux=header.mux,
            speed_class=header.speed_class,
            orientation=header.orient,
            metrics=row,
            bias=bias,
            profile=profile,
            autocorr=autocorr,
        ))

    base_dir = directions.get(baseline, 0)
    if base_dir == 0:
        notes.append(f"baseline {baseline} has no bias direction; BD column is 0")
    for result in results:
        result.bias = replace(result.bias, direction=directions[result.name] * base_dir)

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
        meta["params"] = {
            "sigma_mismatch": params.sigma_mismatch,
            "sigma_noise": params.sigma_noise,
            "beta": params.beta,
            "gradient": list(params.gradient),
        }
    return RunAnalysis(meta=meta, notes=notes, results=results)


def analysis_to_report(run: RunAnalysis) -> dict:
    """JSON-ready report structure (drops the bulky plot vectors)."""
    rows = []
    for r in run.results:
        rows.append({
            "design": r.name,
            "depth": r.depth,
            "width": r.width,
            "mux": r.mux,
            "class": r.speed_class,
            "orientation": r.orientation,
            "wchd_min": r.metrics.wchd_min,
            "wchd_max": r.metrics.wchd_max,
            "mhw_min": r.metrics.mhw_min,
            "mhw_max": r.metrics.mhw_max,
            "entropy_min": r.metrics.entropy_min,
            "entropy_max": r.metrics.entropy_max,
            "period": r.bias.detected_period,
            "pattern": r.bias.notation,
            "direction": r.bias.direction,
        })
    return {"meta": run.meta, "notes": run.notes, "rows": rows}


def _write_columns(path: Path, title: str, values: np.ndarray, few_values: bool) -> None:
    """``title`` then one "index value" line per element, in one write.

    With ``few_values`` each distinct bit pattern is formatted once (%.8f
    tells -0.0 from 0.0); a mean over R readings takes at most R + 1 values.
    """
    if few_values:
        distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
        texts = np.array(["%.8f" % v for v in distinct.view(np.float64).tolist()], dtype=object)
        values = texts[inverse]
    cells = [None] * (2 * len(values))
    cells[0::2] = range(len(values))
    cells[1::2] = values.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(title + ("%d %s\n" if few_values else "%d %.8f\n") * len(values) % tuple(cells))


def write_plot_data(run: RunAnalysis, plot_dir) -> list[Path]:
    """Per-design profile and autocorrelation as two-column text files."""
    out = Path(plot_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for r in run.results:
        path = out / f"{r.name}_profile.dat"
        _write_columns(path, "# readout-index one-probability\n", r.profile, True)
        written.append(path)
        if r.autocorr is not None:
            path = out / f"{r.name}_autocorr.dat"
            _write_columns(path, "# lag autocorrelation\n", r.autocorr, False)
            written.append(path)
    return written
