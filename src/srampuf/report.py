"""Report serialization and the text results table."""

from __future__ import annotations

import json
from pathlib import Path

from .metrics import entropy_range

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

# Every key _row_cells reads, and the types its value may take.
_ROW_TYPES = {"design": str, "pattern": (str, type(None)), "orientation": str, "direction": int,
              **{f"{key}_{end}": (int, float) for key in ("wchd", "mhw", "entropy")
                 for end in ("min", "max")}}


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
    rows, notes = report["rows"], report.get("notes", [])
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise ReportParseError("report rows are not a list of objects")
    if not isinstance(notes, list) or not all(isinstance(note, str) for note in notes):
        raise ReportParseError("report notes are not a list of strings")
    return report


def check_row(row: dict) -> None:
    """Every key the table reads must be present with a value of its type,
    each min/max pair must lie ordered within [0, 1], and the entropy
    columns must restate the MHW endpoints exactly."""
    design = row.get("design", "?")
    for key, types in _ROW_TYPES.items():
        if key not in row:
            raise ReportParseError(f"{design}: key {key!r} is missing")
        if not isinstance(row[key], types) or isinstance(row[key], bool):
            raise ReportParseError(f"{design}: key {key!r} has a value of type "
                                   f"{type(row[key]).__name__}")
    if row["direction"] not in _DIRECTION_MARK:
        raise ReportParseError(f"{design}: key 'direction' is {row['direction']}, "
                               f"not 1, -1 or 0")
    for key in ("wchd", "mhw", "entropy"):
        lo, hi = row[f"{key}_min"], row[f"{key}_max"]
        if not 0.0 <= lo <= hi <= 1.0:
            raise ReportParseError(f"{design}: {key} range [{lo}, {hi}] is not "
                                   f"ordered within [0, 1]")
    expect_min, expect_max = entropy_range(row["mhw_min"], row["mhw_max"])
    if (abs(expect_min - row["entropy_min"]) > 1e-9
            or abs(expect_max - row["entropy_max"]) > 1e-9):
        raise ReportParseError(
            f"{design}: entropy columns do not match the MHW "
            f"endpoints (expected {expect_min:.6f}/{expect_max:.6f})"
        )


def _row_cells(row: dict) -> tuple[str, ...]:
    check_row(row)
    return (
        row["design"],
        f"{row['wchd_min'] * 100:.1f}-{row['wchd_max'] * 100:.1f}",
        f"{row['mhw_min']:.3f}-{row['mhw_max']:.3f}",
        f"{row['entropy_min']:.3f}-{row['entropy_max']:.3f}",
        row["pattern"] or "-",
        row["orientation"],
        _DIRECTION_MARK[row["direction"]],
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
