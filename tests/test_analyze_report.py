"""Dump-directory analysis and the JSON/text report round-trip."""

import json

import numpy as np
import pytest

from oracles import parse_rendered_table
from srampuf.analyze import (
    MissingBaseline,
    REFERENCE_TOTAL_BITS,
    analysis_to_report,
    analyze_dumps,
    scan_dump_dir,
    write_plot_data,
)
from srampuf.biasdetect import InsufficientData
from srampuf.chipnet.dumpfile import DumpHeader, bits_to_words, dump_filename, format_dump
from srampuf.layout import Geometry, Orientation, PlacedMacro
from srampuf.metrics import min_entropy_by_one_probability
from srampuf.patterns import parse_run_length
from srampuf.report import ReportParseError, load_report, render_table, save_report
from srampuf.simchip import ChipBank, DesignEntry, ProcessParams

EXPECTED_PERIODS = {
    "P1_a": 128, "P1_b": 128, "P2_a": 128, "P2_b": 128, "P3": 58,
    "P4_a": 32, "P4_b": 32, "P4_c": 32, "P5_a": 32, "P5_b": 32, "P6": 64,
}
EXPECTED_DIRECTIONS = {
    "P1_a": 1, "P1_b": 1, "P2_a": 1, "P2_b": -1, "P3": -1,
    "P4_a": 1, "P4_b": 1, "P4_c": 1, "P5_a": -1, "P5_b": -1, "P6": 1,
}


def entry(name, depth, width, mux, orient, pattern):
    g = Geometry(depth=depth, width=width, mux=mux)
    return DesignEntry(name=name, placed=PlacedMacro(g, orient), pattern=pattern)


def write_bank_dumps(dirpath, designs, seed, chips, cycles):
    """Dump files straight from a ChipBank, bypassing the server."""
    dirpath.mkdir(parents=True, exist_ok=True)
    bank = ChipBank(designs, ProcessParams(), seed)
    for chip in chips:
        for cycle in cycles:
            snaps = bank.snapshots(chip, cycle)
            for d in designs:
                g = d.geometry
                header = DumpHeader(d.name, g.depth, g.width, g.mux,
                                    d.orientation.value, g.speed_class, chip, cycle)
                path = dirpath / dump_filename(d.name, chip, cycle)
                path.write_text(format_dump(header, bits_to_words(snaps[d.name].bits)))


@pytest.fixture(scope="module")
def small_analysis(small_run):
    return analyze_dumps(small_run["dumps"])


def test_analysis_covers_every_design_in_order(small_analysis):
    assert [r.name for r in small_analysis.results] == sorted(EXPECTED_PERIODS)


def test_detected_periods(small_analysis):
    for r in small_analysis.results:
        assert r.bias.detected_period == EXPECTED_PERIODS[r.name]


def test_bias_directions_follow_the_orientation_grouping(small_analysis):
    for r in small_analysis.results:
        assert r.bias.direction == EXPECTED_DIRECTIONS[r.name], r.name


def test_notation_parses_back_to_the_detected_period(small_analysis):
    for r in small_analysis.results:
        pattern = parse_run_length(r.bias.notation)
        assert pattern.period == r.bias.detected_period
        assert len(r.bias.template) == r.bias.detected_period
        # canonical templates lead with a zero
        assert r.bias.template[0] == 0


def test_metric_bands_are_plausible(small_analysis):
    for r in small_analysis.results:
        m = r.metrics
        assert 0.04 <= m.wchd_min <= m.wchd_max <= 0.09
        assert 0.44 <= m.mhw_min <= m.mhw_max <= 0.52
        assert m.entropy_min <= m.entropy_max <= 1.0


def test_profile_and_autocorr_shapes(small_analysis):
    by_name = {r.name: r for r in small_analysis.results}
    p1 = by_name["P1_a"]
    assert p1.profile.size == 128 * 64
    assert p1.autocorr.size == p1.profile.size // 2 + 1
    assert p1.autocorr[0] == pytest.approx(1.0)
    assert np.all((p1.profile >= 0) & (p1.profile <= 1))


def test_run_metadata(small_run, small_analysis):
    meta = small_analysis.meta
    assert meta["chips"] == small_run["chips"]
    assert meta["cycles"] == small_run["cycles"]
    assert meta["designs"] == 11
    assert meta["total_bits_per_reading"] == 262_144
    assert meta["seed"] == small_run["seed"]
    assert meta["params"]["beta"] == 0.06
    assert any(str(REFERENCE_TOTAL_BITS) in n for n in small_analysis.notes)


def test_top_chip_mode_degrades_but_does_not_fail(small_run):
    run = analyze_dumps(small_run["dumps"], profile_mode="top-chip")
    by_name = {r.name: r for r in run.results}
    # the single strongest chip still resolves the short periods
    assert by_name["P4_a"].bias.detected_period == 32
    # but the baseline profile is too thin, so directions collapse to 0
    assert all(r.bias.direction == 0 for r in run.results)
    assert any("baseline" in n for n in run.notes)


def test_profile_mode_validation(small_run):
    with pytest.raises(ValueError):
        analyze_dumps(small_run["dumps"], profile_mode="median")


def test_missing_baseline(small_run):
    with pytest.raises(MissingBaseline):
        analyze_dumps(small_run["dumps"], baseline="P9")


def test_scan_requires_dumps(tmp_path):
    with pytest.raises(InsufficientData):
        scan_dump_dir(tmp_path)


def test_scan_rejects_inconsistent_headers(tmp_path):
    d = entry("A", 64, 8, 4, Orientation.R0, "0(4)1(4)")
    write_bank_dumps(tmp_path, (d,), 1, chips=[0], cycles=[0])
    other = DumpHeader("A", 32, 8, 4, "R0", "slow", 1, 0)
    (tmp_path / dump_filename("A", 1, 0)).write_text(
        format_dump(other, np.zeros(32, dtype=np.uint64))
    )
    with pytest.raises(InsufficientData):
        scan_dump_dir(tmp_path)


SMALL = (
    entry("A", 64, 16, 4, Orientation.R0, "0(8)1(8)"),
    entry("B", 128, 8, 8, Orientation.R270, "0(4)1(4)"),
)


def test_analyze_rejects_single_cycle(tmp_path):
    write_bank_dumps(tmp_path, SMALL, 1, chips=[0, 1], cycles=[0])
    with pytest.raises(InsufficientData):
        analyze_dumps(tmp_path, baseline="A")


def test_analyze_rejects_single_chip(tmp_path):
    write_bank_dumps(tmp_path, SMALL, 1, chips=[0], cycles=[0, 1])
    with pytest.raises(InsufficientData):
        analyze_dumps(tmp_path, baseline="A")


def test_analyze_requires_enrollment_cycle(tmp_path):
    write_bank_dumps(tmp_path, SMALL, 1, chips=[0, 1], cycles=[1, 2])
    with pytest.raises(InsufficientData):
        analyze_dumps(tmp_path, baseline="A")


def test_analyze_rejects_grid_holes(tmp_path):
    write_bank_dumps(tmp_path, SMALL, 1, chips=[0, 1], cycles=[0, 1])
    (tmp_path / dump_filename("A", 1, 1)).unlink()
    with pytest.raises(InsufficientData):
        analyze_dumps(tmp_path, baseline="A")
    # now both designs lack (1,1): a hole in the common grid
    (tmp_path / dump_filename("B", 1, 1)).unlink()
    with pytest.raises(InsufficientData):
        analyze_dumps(tmp_path, baseline="A")


def test_analyze_notes_missing_floorplan(tmp_path):
    write_bank_dumps(tmp_path, SMALL, 1, chips=[0, 1], cycles=[0, 1])
    run = analyze_dumps(tmp_path, baseline="A")
    assert any("floorplan.cfg" in n for n in run.notes)
    assert "params" not in run.meta


def test_constant_design_reports_raw_weight(tmp_path):
    write_bank_dumps(tmp_path, SMALL, 1, chips=[0, 1], cycles=[0, 1])
    for chip in (0, 1):
        for cycle in (0, 1):
            header = DumpHeader("C", 64, 16, 4, "R0", "slow", chip, cycle)
            (tmp_path / dump_filename("C", chip, cycle)).write_text(
                format_dump(header, np.full(64, 0xFFFF, dtype=np.uint64))
            )
    run = analyze_dumps(tmp_path, baseline="A")
    by_name = {r.name: r for r in run.results}
    c = by_name["C"]
    assert c.bias.detected_period is None
    assert c.bias.direction == 0
    assert c.metrics.mhw_min == 1.0  # raw FHW of the all-ones design
    assert c.metrics.entropy_min == 0.0
    assert any("C: no reliable bias period" in n for n in run.notes)
    assert any("raw FHW" in n for n in run.notes)


def test_write_plot_data(small_analysis, tmp_path):
    written = write_plot_data(small_analysis, tmp_path / "plots")
    assert len(written) == 22  # profile + autocorrelation per design
    profile = (tmp_path / "plots" / "P1_a_profile.dat").read_text().splitlines()
    assert profile[0].startswith("#")
    assert len(profile) == 128 * 64 + 1
    index, value = profile[1].split()
    assert index == "0" and 0.0 <= float(value) <= 1.0


# -- report rendering ----------------------------------------------------


def report_row(**overrides):
    mhw_min, mhw_max = overrides.pop("mhw", (0.430, 0.539))
    row = {
        "design": "P3",
        "depth": 1024, "width": 32, "mux": 16,
        "class": "slow", "orientation": "R270",
        "wchd_min": 0.055, "wchd_max": 0.070,
        "mhw_min": mhw_min, "mhw_max": mhw_max,
        "entropy_min": min_entropy_by_one_probability(mhw_min),
        "entropy_max": min_entropy_by_one_probability(mhw_max),
        "period": 58, "pattern": "0(29)1(29)", "direction": -1,
    }
    row.update(overrides)
    return row


def test_render_table_formatting():
    text = render_table({"rows": [report_row()]})
    lines = text.splitlines()
    assert lines[0].split(" | ")[0].strip() == "SRAM-PUF"
    assert set(lines[1]) <= set("-+")
    cells = [c.strip() for c in lines[2].split(" | ")]
    assert cells == ["P3", "5.5-7.0", "0.430-0.539", "0.811-0.892",
                     "0(29)1(29)", "R270", "-"]


def test_render_marks_missing_pattern_and_zero_direction():
    row = report_row(pattern=None, direction=0, mhw=(0.5, 0.5))
    text = render_table({"rows": [row]})
    cells = [c.strip() for c in text.splitlines()[2].split(" | ")]
    assert cells[4] == "-"
    assert cells[6] == "0"


def test_render_rejects_inconsistent_entropy():
    row = report_row()
    row["entropy_min"] = 0.5
    with pytest.raises(ReportParseError):
        render_table({"rows": [row]})


def test_render_empty_report_is_header_only():
    text = render_table({"rows": []})
    assert len(text.splitlines()) == 2


def test_rendered_table_has_one_row_per_design(small_analysis):
    report = analysis_to_report(small_analysis)
    cells = parse_rendered_table(render_table(report))
    assert len(cells) == 11
    assert cells[0]["SRAM-PUF"] == "P1_a"
    assert [c["SRAM-PUF"] for c in cells] == [r["design"] for r in report["rows"]]


def test_save_and_load_report(tmp_path, small_analysis):
    report = analysis_to_report(small_analysis)
    path = tmp_path / "report.json"
    save_report(report, path)
    assert load_report(path) == report
    # stable serialization: saving the loaded report reproduces the bytes
    again = tmp_path / "again.json"
    save_report(load_report(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_load_report_errors(tmp_path):
    with pytest.raises(ReportParseError):
        load_report(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ReportParseError):
        load_report(bad)
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"meta": {}}))
    with pytest.raises(ReportParseError):
        load_report(empty)
