"""Report serialization and the text results table."""

from __future__ import annotations

import json
from pathlib import Path

from .metrics import min_entropy_by_one_probability

COLUMNS = (
    "SRAM-PUF",
    "WCHD (%)",
    "MHW",
    "Entropy",
    "Bias pattern",
    "Orientation",
    "BD",
)

_DIRECTION_MARK = {1: "+", -1: "-", 0: "0"}


class ReportParseError(ValueError):
    pass


def save_report(report: dict, path) -> None:
    Path(path).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_report(path) -> dict:
    try:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise ReportParseError(f"cannot read report: {e}") from e
    if not isinstance(report, dict) or "rows" not in report:
        raise ReportParseError("report has no rows")
    return report


def _verify_entropy(row: dict) -> None:
    """The entropy columns must restate the MHW endpoints exactly."""
    lo, hi = row["mhw_min"], row["mhw_max"]
    far, near = (lo, hi) if abs(lo - 0.5) >= abs(hi - 0.5) else (hi, lo)
    expect_min = min_entropy_by_one_probability(far)
    expect_max = min_entropy_by_one_probability(near)
    if (abs(expect_min - row["entropy_min"]) > 1e-9
            or abs(expect_max - row["entropy_max"]) > 1e-9):
        raise ReportParseError(
            f"{row.get('design', '?')}: entropy columns do not match the MHW "
            f"endpoints (expected {expect_min:.6f}/{expect_max:.6f})"
        )


def _row_cells(row: dict) -> tuple[str, ...]:
    _verify_entropy(row)
    return (
        str(row["design"]),
        f"{row['wchd_min'] * 100:.1f}-{row['wchd_max'] * 100:.1f}",
        f"{row['mhw_min']:.3f}-{row['mhw_max']:.3f}",
        f"{row['entropy_min']:.3f}-{row['entropy_max']:.3f}",
        row["pattern"] if row.get("pattern") else "-",
        str(row["orientation"]),
        _DIRECTION_MARK[int(row["direction"])],
    )


def render_table(report: dict) -> str:
    """Fixed-width results table, one row per design."""
    rows = [_row_cells(row) for row in report["rows"]]
    widths = [
        max(len(COLUMNS[i]), *(len(r[i]) for r in rows)) if rows else len(COLUMNS[i])
        for i in range(len(COLUMNS))
    ]
    header = " | ".join(c.ljust(w) for c, w in zip(COLUMNS, widths)).rstrip()
    rule = "-+-".join("-" * w for w in widths)
    lines = [header, rule]
    for r in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"
