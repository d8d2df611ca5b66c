"""Turn a directory of power-up dumps into a per-design results table.

For each design: reliability (WCHD of every reconstruction cycle against
the chip's cycle-0 enrollment), the positional bias profile and its
autocorrelation, the dominant bias period and majority template, masked
Hamming weight against that template, per-bit min-entropy endpoints, and
the bias direction relative to a baseline design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    extract_template,
    smooth_template,
    strongest_vector,
)
from .chipnet.collector import FLOORPLAN_NAME, MANIFEST_NAME
from .chipnet.dumpfile import DumpHeader, parse_dump, parse_header, words_to_bits
from .floorplan import load_config
from .metrics import MetricsRow, mhw, min_entropy_by_one_probability, wchd
from .patterns import canonical_cycle, cyclic_notation
from .simchip import ProcessParams

# Per-reading bit count of the physical reference harness this workbench
# emulates; reported runs are flagged when their floorplan total differs.
REFERENCE_TOTAL_BITS = 262_320

PROFILE_MODES = ("mean", "top-chip")


class MissingBaseline(ValueError):
    pass


@dataclass(frozen=True)
class DesignDumps:
    """Locations and shared header geometry of one design's dump files."""

    header: DumpHeader  # chip/cycle fields are not meaningful here
    files: dict  # (chip, cycle) -> Path

    @property
    def cells(self) -> int:
        return self.header.depth * self.header.width


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


def scan_dump_dir(dump_dir) -> dict[str, DesignDumps]:
    """Index a dump directory by design; validates header consistency."""
    root = Path(dump_dir)
    index: dict[str, DesignDumps] = {}
    for path in sorted(root.glob("*.pufdump")):
        with open(path, "r", encoding="utf-8") as fh:
            head = [fh.readline().rstrip("\n") for _ in range(3)]
        header = parse_header(head)
        known = index.get(header.design)
        if known is None:
            index[header.design] = DesignDumps(header=header, files={})
        else:
            for field_name in ("depth", "width", "mux", "orient", "speed_class"):
                if getattr(known.header, field_name) != getattr(header, field_name):
                    raise InsufficientData(
                        f"{path.name}: {field_name} disagrees with other "
                        f"{header.design} dumps"
                    )
        index[header.design].files[(header.chip, header.cycle)] = path
    if not index:
        raise InsufficientData(f"no .pufdump files under {root}")
    return index


def _readings(design: DesignDumps, chips, cycles) -> np.ndarray:
    """(readings, cells) bit matrix ordered by (chip, cycle)."""
    rows = np.empty((len(chips) * len(cycles), design.cells), dtype=np.uint8)
    i = 0
    for chip in chips:
        for cycle in cycles:
            header, words = parse_dump(
                design.files[(chip, cycle)].read_text(encoding="utf-8")
            )
            rows[i] = words_to_bits(words, header.width).reshape(-1)
            i += 1
    return rows


def _grid(index: dict[str, DesignDumps]) -> tuple[list[int], list[int]]:
    """Common (chips, cycles) grid across designs; must be complete."""
    keys = None
    for design in index.values():
        if keys is None:
            keys = set(design.files)
        elif set(design.files) != keys:
            raise InsufficientData("designs cover different chip/cycle sets")
    chips = sorted({c for c, _ in keys})
    cycles = sorted({k for _, k in keys})
    if len(keys) != len(chips) * len(cycles):
        raise InsufficientData("chip/cycle grid has holes")
    if len(chips) < 2:
        raise InsufficientData(f"need dumps from >= 2 chips, found {len(chips)}")
    if len(cycles) < 2:
        raise InsufficientData(f"need dumps from >= 2 cycles, found {len(cycles)}")
    if 0 not in cycles:
        raise InsufficientData("no cycle-0 enrollment dumps present")
    return chips, cycles


def _read_manifest(dump_dir: Path) -> dict:
    meta = {}
    path = dump_dir / MANIFEST_NAME
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition(" ")
            meta[key] = value.strip()
    return meta


def analyze_dumps(
    dump_dir,
    baseline: str = "P1_a",
    profile_mode: str = "mean",
) -> RunAnalysis:
    if profile_mode not in PROFILE_MODES:
        raise ValueError(f"profile_mode must be one of {PROFILE_MODES}")
    root = Path(dump_dir)
    index = scan_dump_dir(root)
    if baseline not in index:
        raise MissingBaseline(
            f"baseline design {baseline!r} not in dumps ({sorted(index)})"
        )
    chips, cycles = _grid(index)
    recon_cycles = [c for c in cycles if c != 0]

    params: ProcessParams | None = None
    notes: list[str] = []
    plan_path = root / FLOORPLAN_NAME
    if plan_path.exists():
        params, _ = load_config(plan_path)
    else:
        notes.append("no floorplan.cfg beside the dumps; process parameters unknown")

    results: list[DesignResult] = []
    directions: dict[str, int] = {}
    for name in sorted(index):
        design = index[name]
        bits = _readings(design, chips, cycles)
        n_cycles = len(cycles)

        per_chip_wchd = []
        for ci in range(len(chips)):
            block = bits[ci * n_cycles : (ci + 1) * n_cycles]
            enroll = block[cycles.index(0)]
            per_chip_wchd.append(
                float(np.mean([wchd(enroll, block[cycles.index(k)])
                               for k in recon_cycles]))
            )

        if profile_mode == "mean":
            profile = bits.mean(axis=0)
        else:
            chip_profiles = bits.reshape(len(chips), n_cycles, -1).mean(axis=1)
            profile = chip_profiles[strongest_vector(chip_profiles)]

        autocorr = None
        bias = BiasReport(detected_period=None, template=None, notation=None,
                          direction=0)
        template = None
        try:
            autocorr = autocorrelation(profile)
            period = dominant_period(autocorr, profile.size)
            template = smooth_template(extract_template(list(bits), period))
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
            directions[name] = bias_direction(profile, tiled, max_lag=0)
            per_chip_mhw = [
                float(np.mean([
                    mhw(bits[ci * n_cycles + k], template)
                    for k in range(n_cycles)
                ]))
                for ci in range(len(chips))
            ]
        else:
            directions[name] = 0
            per_chip_mhw = [
                float(np.mean(bits[ci * n_cycles : (ci + 1) * n_cycles]))
                for ci in range(len(chips))
            ]
            notes.append(f"{name}: reporting raw FHW in the MHW column")

        mhw_lo, mhw_hi = min(per_chip_mhw), max(per_chip_mhw)
        far, near = ((mhw_lo, mhw_hi) if abs(mhw_lo - 0.5) >= abs(mhw_hi - 0.5)
                     else (mhw_hi, mhw_lo))
        row = MetricsRow(
            design=name,
            wchd_min=min(per_chip_wchd),
            wchd_max=max(per_chip_wchd),
            mhw_min=mhw_lo,
            mhw_max=mhw_hi,
            entropy_min=min_entropy_by_one_probability(far),
            entropy_max=min_entropy_by_one_probability(near),
        )
        results.append(DesignResult(
            name=name,
            depth=design.header.depth,
            width=design.header.width,
            mux=design.header.mux,
            speed_class=design.header.speed_class,
            orientation=design.header.orient,
            metrics=row,
            bias=bias,
            profile=profile,
            autocorr=autocorr,
        ))

    base_dir = directions.get(baseline, 0)
    if base_dir == 0:
        notes.append(f"baseline {baseline} has no bias direction; BD column is 0")
    for result in results:
        result.bias = BiasReport(
            detected_period=result.bias.detected_period,
            template=result.bias.template,
            notation=result.bias.notation,
            direction=directions[result.name] * base_dir,
        )

    total = sum(d.cells for d in index.values())
    if total != REFERENCE_TOTAL_BITS:
        notes.append(
            f"floorplan reads {total} bits per chip per cycle; the reference "
            f"harness reports {REFERENCE_TOTAL_BITS} (difference "
            f"{REFERENCE_TOTAL_BITS - total:+d})"
        )

    manifest = _read_manifest(root)
    meta = {
        "baseline": baseline,
        "profile_mode": profile_mode,
        "chips": len(chips),
        "cycles": len(cycles),
        "designs": len(results),
        "total_bits_per_reading": total,
        "seed": int(manifest["seed"]) if "seed" in manifest else None,
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


def write_plot_data(run: RunAnalysis, plot_dir) -> list[Path]:
    """Per-design profile and autocorrelation as two-column text files."""
    out = Path(plot_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for r in run.results:
        path = out / f"{r.name}_profile.dat"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# readout-index one-probability\n")
            for i, v in enumerate(r.profile):
                fh.write(f"{i} {v:.8f}\n")
        written.append(path)
        if r.autocorr is not None:
            path = out / f"{r.name}_autocorr.dat"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("# lag autocorrelation\n")
                for i, v in enumerate(r.autocorr):
                    fh.write(f"{i} {v:.8f}\n")
            written.append(path)
    return written
