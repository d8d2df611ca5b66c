"""Dump-directory analysis and the JSON/text report round-trip."""

import builtins
import collections
import io
import itertools
import json
import os
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import majority_template, parse_rendered_table, scan_dump_dir_by_glob, write_columns
from srampuf import analyze
from srampuf.analyze import (
    PROFILE_MODES,
    MissingBaseline,
    REFERENCE_TOTAL_BITS,
    RunAnalysis,
    analysis_to_report,
    analyze_dumps,
    scan_dump_dir,
    _index_digits,
    _write_columns,
    write_plot_data,
)
from srampuf.biasdetect import (
    InsufficientData,
    extract_template,
    smooth_template,
    strongest_vector,
)
from srampuf.chipnet import dumpdir
from srampuf.chipnet.dumpdir import dump_filename, grid, load_bits, write_cycle
from srampuf.chipnet.dumpfile import (
    DumpFormatError,
    DumpHeader,
    bits_to_words,
    format_dump,
    parse_dump,
    words_to_bits,
)
from srampuf.layout import Geometry, Orientation
from srampuf.metrics import entropy_range, mhw, min_entropy_by_one_probability, wchd
from srampuf.patterns import canonical_cycle, parse_run_length
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
    return DesignEntry(name, g, orient, pattern)


def write_bank_dumps(dirpath, designs, seed, chips, cycles):
    """Dump files straight from a ChipBank, bypassing the server."""
    dirpath.mkdir(parents=True, exist_ok=True)
    bank = ChipBank(designs, ProcessParams(), seed)
    for chip in chips:
        for cycle in cycles:
            snaps = bank.snapshots(chip, cycle)
            write_cycle(dirpath, chip, cycle, designs,
                        [bits_to_words(snaps[d.name].bits) for d in designs])


def _template(row):
    """The canonical template a row's pattern and period stand for."""
    return parse_run_length(row["pattern"]).bits(row["period"])


@pytest.fixture(scope="module")
def small_analysis(small_run):
    return analyze_dumps(small_run["dumps"])


def test_analysis_covers_every_design_in_order(small_analysis):
    assert [r.name for r in small_analysis.results] == sorted(EXPECTED_PERIODS)


def test_detected_periods(small_analysis):
    for r in small_analysis.results:
        assert r.row["period"] == EXPECTED_PERIODS[r.name]


def test_bias_directions_follow_the_orientation_grouping(small_analysis):
    for r in small_analysis.results:
        assert r.row["direction"] == EXPECTED_DIRECTIONS[r.name], r.name


def test_notation_parses_back_to_the_detected_period(small_analysis):
    for r in small_analysis.results:
        pattern = parse_run_length(r.row["pattern"])
        assert pattern.period == r.row["period"]
        # canonical templates lead with a zero
        assert _template(r.row)[0] == 0


def test_metric_bands_are_plausible(small_analysis):
    for r in small_analysis.results:
        m = r.row
        assert 0.04 <= m["wchd_min"] <= m["wchd_max"] <= 0.09
        assert 0.44 <= m["mhw_min"] <= m["mhw_max"] <= 0.52
        assert m["entropy_min"] <= m["entropy_max"] <= 1.0


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
    assert by_name["P4_a"].row["period"] == 32
    # but the baseline profile is too thin, so directions collapse to 0
    assert all(r.row["direction"] == 0 for r in run.results)
    assert any("baseline" in n for n in run.notes)


def test_tensor_metrics_equal_the_per_reading_scalars():
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2, size=(3, 4, 96), dtype=np.uint8)  # chips, cycles, cells
    distances = wchd(bits[:, :1], bits[:, 1:])
    assert distances.shape == (3, 3)
    template = rng.integers(0, 2, size=7, dtype=np.uint8)  # 96 bits: 5 trailing dropped
    weights = mhw(bits, template)
    assert weights.shape == (3, 4)
    for chip in range(3):
        for cycle in range(4):
            assert weights[chip, cycle] == mhw(bits[chip, cycle], template)
            if cycle:
                assert distances[chip, cycle - 1] == wchd(bits[chip, 0], bits[chip, cycle])
    rows = bits.reshape(-1, 96)
    folded = extract_template(rows, 12)
    assert np.array_equal(folded, extract_template(list(rows), 12))
    assert np.array_equal(folded, majority_template(rows, 12))


def read_bits(path):
    header, words = parse_dump(path.read_text())
    return words_to_bits(words, header.width).reshape(-1)


@pytest.mark.parametrize("profile_mode", ["mean", "top-chip"])
def test_analysis_equals_the_per_reading_computation(small_run, profile_mode):
    run = analyze_dumps(small_run["dumps"], profile_mode=profile_mode)
    index = scan_dump_dir(small_run["dumps"])
    chips, cycles = range(small_run["chips"]), range(small_run["cycles"])
    for r in run.results:
        readings = [[read_bits(small_run["dumps"] / index[r.name][(chip, cycle)])
                     for cycle in cycles]
                    for chip in chips]
        per_chip_wchd = [float(np.mean([wchd(chip[0], recon) for recon in chip[1:]]))
                         for chip in readings]
        assert (r.row["wchd_min"], r.row["wchd_max"]) == (min(per_chip_wchd),
                                                          max(per_chip_wchd))
        flat = [reading for chip in readings for reading in chip]
        if profile_mode == "mean":
            profile = np.mean(flat, axis=0)
        else:
            chip_profiles = np.mean(readings, axis=1)
            profile = chip_profiles[strongest_vector(chip_profiles)]
        assert np.array_equal(r.profile, profile)
        if r.row["period"] is None:
            per_chip_mhw = [float(np.mean(chip)) for chip in readings]
        else:
            template = smooth_template(extract_template(flat, r.row["period"]))
            assert np.array_equal(canonical_cycle(template)[0], _template(r.row))
            per_chip_mhw = [float(np.mean([mhw(reading, template) for reading in chip]))
                            for chip in readings]
        assert (r.row["mhw_min"], r.row["mhw_max"]) == (min(per_chip_mhw),
                                                        max(per_chip_mhw))


def test_profile_mode_validation(small_run):
    with pytest.raises(ValueError):
        analyze_dumps(small_run["dumps"], profile_mode="median")


def test_missing_baseline(small_run):
    with pytest.raises(MissingBaseline):
        analyze_dumps(small_run["dumps"], baseline="P9")


def test_scan_requires_dumps(tmp_path):
    with pytest.raises(InsufficientData):
        scan_dump_dir(tmp_path)


def _scan_outcome(scan, directory):
    """A scan's index, or its error's type and message."""
    try:
        return scan(directory)
    except InsufficientData as e:
        return type(e), str(e)


_DESIGNS = ["A", "P1_a", "X_chip12_cycle3", "Y_chip007_cycle00.pufdump_B"]
# Names that are not what dump_filename writes, or not dumps at all.
_ODD_NAMES = [
    "A_chip0007_cycle00.pufdump", "A_chip007_cycle000.pufdump", "A_chip7_cycle00.pufdump",
    "A_chip000_cycle0.pufdump", "A_chip01000_cycle00.pufdump", "A_chip000_cycle010.pufdump",
    "A_chip\u0660\u0660\u0667_cycle00.pufdump", "A_chip-01_cycle00.pufdump",
    "_chip000_cycle00.pufdump", "A_chip000_cycle00.PUFDUMP", "A_chip000_cycle00.pufdump.bak",
    "A\nB_chip000_cycle00.pufdump", "junk\nA_chip001_cycle00.pufdump",
    "A_chip000_cycle00.pufdump\nA_chip001_cycle00.pufdump", "A\r_chip000_cycle00.pufdump",
    "notes.pufdump", ".pufdump", "manifest.txt", "floorplan.cfg", "readme",
]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(canonical=st.lists(st.tuples(st.sampled_from(_DESIGNS),
                                    st.integers(0, 1200) | st.sampled_from([999, 1000, 10**5]),
                                    st.integers(0, 120) | st.sampled_from([99, 100])),
                          max_size=8),
       odd=st.lists(st.sampled_from(_ODD_NAMES), max_size=2),
       as_directory=st.booleans())
def test_scan_matches_the_glob_oracle(canonical, odd, as_directory):
    names = {dump_filename(*key) for key in canonical} | set(odd)
    with tempfile.TemporaryDirectory() as tmp:
        for n, name in enumerate(sorted(names)):
            # The first name is sometimes a directory, not a file.
            path = Path(tmp, name)
            path.mkdir() if as_directory and n == 0 else path.write_bytes(b"")
        got = _scan_outcome(scan_dump_dir, tmp)
        assert got == _scan_outcome(scan_dump_dir_by_glob, tmp)
    event("refused" if isinstance(got, tuple) else "indexed")


def test_analyze_reads_through_a_relative_path_and_a_symlink(tmp_path, monkeypatch):
    dumps = tmp_path / "dumps"
    write_bank_dumps(dumps, SMALL, 1, chips=[0, 1], cycles=[0, 1, 2])
    (tmp_path / "link").symlink_to(dumps, target_is_directory=True)

    def report_bytes(path, out):
        save_report(analysis_to_report(analyze_dumps(path, baseline="A")), out)
        return out.read_bytes()

    # Each design decodes as one stack, never file by file.
    monkeypatch.setattr(dumpdir, "decode_dump", None)
    want = report_bytes(dumps, tmp_path / "absolute.json")
    monkeypatch.chdir(tmp_path)
    assert report_bytes("dumps", tmp_path / "relative.json") == want
    assert report_bytes(Path("link"), tmp_path / "symlink.json") == want
    assert report_bytes(tmp_path / "link", tmp_path / "absolute_symlink.json") == want


def _open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("case", ["clean", "per-file", "readv fails", "directory"])
def test_load_bits_leaves_no_descriptor_open(tmp_path, monkeypatch, case):
    write_bank_dumps(tmp_path, SMALL[:1], 1, chips=[0, 1], cycles=[0, 1, 2])
    files = scan_dump_dir(tmp_path)["A"]
    if case == "per-file":  # a header the writer would not write: refused file by file
        path = tmp_path / files[(1, 0)]
        path.write_bytes(path.read_bytes().replace(b"depth=", b"depth=0", 1))
    elif case == "readv fails":  # an OSError in the third read of the one-buffer pass
        reads = itertools.count()

        def failing_readv(fd, buffers, readv=os.readv):
            if next(reads) == 2:
                raise OSError(5, "Input/output error")
            return readv(fd, buffers)

        monkeypatch.setattr(os, "readv", failing_readv)
    elif case == "directory":  # an OSError in both passes
        path = tmp_path / files[(0, 2)]
        path.unlink()
        path.mkdir()
    decoded = []  # dumps the file-by-file pass decoded
    monkeypatch.setattr(dumpdir, "decode_dump",
                        lambda raw, decode=dumpdir.decode_dump: decoded.append(1) or decode(raw))
    before = _open_descriptors()
    if case == "per-file":
        with pytest.raises(DumpFormatError, match=f"^{path.name}: line 2 is "):
            load_bits(tmp_path, "A", files, *grid({"A": files}))
    elif case == "directory":
        with pytest.raises(IsADirectoryError):
            load_bits(tmp_path, "A", files, *grid({"A": files}))
    else:
        header, packed = load_bits(tmp_path, "A", files, *grid({"A": files}))
        assert packed.shape == (2, 3, 64 * 2)
    assert _open_descriptors() == before
    assert bool(decoded) == (case != "clean")


def test_analyze_rejects_inconsistent_headers(tmp_path):
    d = entry("A", 64, 8, 4, Orientation.R0, "0(4)1(4)")
    write_bank_dumps(tmp_path, (d,), 1, chips=[0, 1], cycles=[0, 1])
    other = DumpHeader("A", 32, 8, 4, "R0", "slow", 1, 0)
    (tmp_path / dump_filename("A", 1, 0)).write_text(
        format_dump(other, np.zeros(32, dtype=np.uint64))
    )
    with pytest.raises(InsufficientData, match=r"^A_chip001_cycle00\.pufdump: depth "):
        analyze_dumps(tmp_path, baseline="A")


def test_analyze_reads_each_dump_once_and_scan_opens_none(tmp_path, monkeypatch):
    write_bank_dumps(tmp_path, SMALL, 1, chips=[0, 1], cycles=[0, 1, 2])
    dumps = sorted(tmp_path.glob("*.pufdump"))

    def no_open(*args, **kwargs):
        raise AssertionError(f"scan_dump_dir opened {args[0]}")

    with monkeypatch.context() as m:
        for module, name in ((builtins, "open"), (io, "open"), (os, "open")):
            m.setattr(module, name, no_open)
        index = scan_dump_dir(tmp_path)
    assert sorted(name for files in index.values() for name in files.values()) \
        == [path.name for path in dumps]

    # Every way a file is opened, the file-by-file pass's read_bytes included.
    opens = collections.Counter()

    def counted(opener):
        def open_counted(file, *args, **kwargs):
            opens[Path(os.fspath(file)).name] += 1
            return opener(file, *args, **kwargs)
        return open_counted

    for module, name in ((builtins, "open"), (io, "open"), (os, "open")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    analyze_dumps(tmp_path, baseline="A")
    assert {name: n for name, n in opens.items() if name.endswith(".pufdump")} \
        == {path.name: 1 for path in dumps}


def _traced_peak(call):
    """``call()`` and the most memory tracemalloc saw above what was held before it."""
    call()  # imports and caches are not the call's own
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def _packed_design_dumps(tmp_path):
    """16 x 16 dumps of one 64 x 64 design, and the bytes its packed readings take."""
    design = entry("A", 64, 64, 4, Orientation.R0, "0(16)1(16)")
    write_bank_dumps(tmp_path, (design,), 3, chips=range(16), cycles=range(16))
    return 16 * 16 * design.geometry.cells // 8


def test_load_bits_streams_the_dumps_into_one_buffer(tmp_path):
    packed = _packed_design_dumps(tmp_path)
    files = scan_dump_dir(tmp_path)["A"]
    (_, octets), peak = _traced_peak(lambda: load_bits(tmp_path, "A", files, range(16),
                                                       range(16)))
    assert octets.nbytes == packed
    # One buffer of bodies (a 64-bit word's dump line has 23 bytes for its 8),
    # the digits padded to whole bytes (16) and the packed readings: about 6x.
    # Holding every dump's bytes while joining their bodies took about 10x.
    assert peak < 7 * packed, f"peak {peak} B for {packed} B of packed readings"


def test_analysis_holds_each_design_packed(tmp_path):
    packed = _packed_design_dumps(tmp_path)
    run, peak = _traced_peak(lambda: analyze_dumps(tmp_path, baseline="A"))
    assert run.results[0].row["period"] == 32
    # Loading takes about 6x the packed size (see the test above).  The
    # column sums unpack up to UNPACK_BYTES at once: here all 1 MiB, 8x.
    assert peak < 14 * packed, f"peak {peak} B for {packed} B of packed readings"


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
    assert c.row["period"] is None and c.row["pattern"] is None
    assert c.row["direction"] == 0
    assert c.row["mhw_min"] == 1.0  # raw FHW of the all-ones design
    assert c.row["entropy_min"] == 0.0
    assert any("C: no reliable bias period" in n for n in run.notes)
    assert any("raw FHW" in n for n in run.notes)


def test_constant_template_gives_bd_0_and_a_note(tmp_path):
    # Smoothing erases the one-phase run of 0(7)1(1), so the template is constant.
    designs = (entry("A", 256, 32, 4, Orientation.R0, "0(16)1(16)"),
               entry("C", 256, 48, 4, Orientation.R0, "0(7)1(1)"))
    write_bank_dumps(tmp_path, designs, 0, chips=[0, 1, 2], cycles=[0, 1, 2])
    run = analyze_dumps(tmp_path, baseline="A")
    by_name = {r.name: r for r in run.results}
    assert by_name["A"].row["direction"] == 1
    c = by_name["C"]
    assert c.row["direction"] == 0
    assert set(_template(c.row).tolist()) == {0}
    assert any(n.startswith("C: ") and "constant" in n for n in run.notes)
    bits = np.array([read_bits(tmp_path / dump_filename("C", chip, cycle))
                     for chip in range(3) for cycle in range(3)])
    per_chip_mhw = mhw(bits, np.zeros(1, dtype=np.uint8)).reshape(3, 3).mean(axis=1)
    assert (c.row["mhw_min"], c.row["mhw_max"]) == (per_chip_mhw.min(), per_chip_mhw.max())


def test_write_plot_data(small_analysis, tmp_path):
    written = write_plot_data(small_analysis, tmp_path / "plots")
    assert len(written) == 22  # profile + autocorrelation per design
    profile = (tmp_path / "plots" / "P1_a_profile.dat").read_text().splitlines()
    assert profile[0].startswith("#")
    assert len(profile) == 128 * 64 + 1
    index, value = profile[1].split()
    assert index == "0" and 0.0 <= float(value) <= 1.0


# Values "%.8f" prints differently though np.unique or == would merge them,
# values it prints alike, and exact binary ties at the eighth decimal.
EDGE_VALUES = [-0.0, 0.0, 1.0, -1e-12, 1e-12, 2**-9, 3 * 2**-9, 1 - 2**-9, -(2**-9),
               0.125, 0.5, 1 / 3, 2 / 3, 0.375 + 2**-30, float("nan"), float("inf")]


def _oracle_plot_bytes(result, tmp_path):
    files = {f"{result.name}_profile.dat": ("# readout-index one-probability\n", result.profile)}
    if result.autocorr is not None:
        files[f"{result.name}_autocorr.dat"] = ("# lag autocorrelation\n", result.autocorr)
    for name, (title, values) in files.items():
        write_columns(tmp_path / name, title, values)
    return {name: (tmp_path / name).read_bytes() for name in files}


@pytest.mark.parametrize("mode", PROFILE_MODES)
def test_plot_files_match_the_per_value_writer(small_run, tmp_path, mode):
    run = analyze_dumps(small_run["dumps"], profile_mode=mode)
    written = write_plot_data(run, tmp_path / "plots")
    (tmp_path / "want").mkdir()
    want = {}
    for r in run.results:
        want.update(_oracle_plot_bytes(r, tmp_path / "want"))
    assert {p.name: p.read_bytes() for p in written} == want


def test_plot_files_match_the_per_value_writer_on_edge_values(small_analysis, tmp_path):
    values = np.array(EDGE_VALUES * 3)
    np.random.default_rng(5).shuffle(values)
    finite = values[np.isfinite(values)]
    for autocorr in (finite, None):
        result = replace(small_analysis.results[0], profile=finite, autocorr=autocorr)
        out = tmp_path / f"plots{autocorr is None}"
        written = write_plot_data(RunAnalysis(meta={}, notes=[], results=[result]), out)
        want = _oracle_plot_bytes(result, tmp_path)
        assert {p.name: p.read_bytes() for p in written} == want
    text = (out / f"{result.name}_profile.dat").read_text()
    assert " -0.00000000\n" in text and " 0.00000000\n" in text and " 0.00195312\n" in text
    # NaN or infinity is refused, naming the file, before the file is opened.
    for profile, autocorr, refused in ((values, finite, "profile"),
                                       (finite, values, "autocorr")):
        result = replace(small_analysis.results[0], profile=profile, autocorr=autocorr)
        out = tmp_path / f"refused_{refused}"
        with pytest.raises(ValueError, match=f"{result.name}_{refused}.dat: a value is NaN"):
            write_plot_data(RunAnalysis(meta={}, notes=[], results=[result]), out)
        assert not (out / f"{result.name}_{refused}.dat").exists()


# Values the digit path prints: signed zeros, subnormals, the last units
# below ten, k/2**m grid points (exact binary ties at the eighth decimal
# from m = 9 on), the doubles nearest a decimal half unit (whose product
# with 1e8 often rounds to the half unit itself) and plain floats of both
# signs.  A value whose count of 1e-8 units rounds to 1e9 or more is
# refused instead: some grid points, the half units next to +-10 and the
# upper half of the strips below ten.
PRINTED = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-12]),
    st.floats(10 - 1e-8, 10, exclude_max=True),
    st.floats(-10, -10 + 1e-8, exclude_min=True),
    st.builds(lambda k, m: k / 2**m, st.integers(-5119, 5119), st.integers(0, 14)),
    st.builds(lambda k: (2 * k + 1) / 200_000_000, st.integers(-10**9, 10**9 - 1)),
    st.floats(-10, 10, exclude_min=True, exclude_max=True),
)
# Any one of these is refused, and the file is not written.
REFUSED = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 10.0, -10.0,
                     9.999999995, -9.999999995]),
    st.floats(10 - 4.9e-9, 10), st.floats(-10, -10 + 4.9e-9),
    st.floats(10, 1e300), st.floats(-1e300, -10),
)


def _assert_refused(path, values, index_digits):
    with pytest.raises(ValueError, match=f"{path.name}: a value is NaN"):
        _write_columns(path, "# t\n", values, index_digits)
    assert not path.exists()


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.sampled_from([0, 1, 9, 10, 11, 100, 1001]), data=st.data(),
       spare_rows=st.sampled_from([0, 1, 2000]))
def test_write_columns_matches_the_per_value_writer(tmp_path, n, data, spare_rows):
    values = data.draw(arrays(np.float64, n, elements=PRINTED, fill=PRINTED))
    digits = _index_digits(n + spare_rows)
    # Every value below the cutoff prints as "%.8f" prints it; one above it
    # refuses the whole array.
    refused = np.rint(np.abs(values) * 1e8) >= 1e9
    printed = values[~refused]
    _write_columns(tmp_path / "got", "# t\n", printed, digits)
    write_columns(tmp_path / "want", "# t\n", printed)
    assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()
    if refused.any():
        _assert_refused(tmp_path / "near", values, digits)
    if n:
        wide = values.copy()
        wide[data.draw(st.integers(0, n - 1))] = data.draw(REFUSED)
        _assert_refused(tmp_path / "wide", wide, digits)


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


ROW_RANGE_CASES = [  # changes to report_row(), and the range the row check refuses
    ({"wchd_min": 0.05, "wchd_max": 0.09}, None),
    ({"wchd_min": 0.09, "wchd_max": 0.05}, "wchd"),  # min > max
    ({"mhw_max": 1.62}, "mhw"),  # max > 1
    ({"wchd_min": -0.1}, "wchd"),  # min < 0
]


def test_render_checks_row_ranges():
    for changes, refused in ROW_RANGE_CASES:
        report = {"rows": [{**report_row(), **changes}]}
        if refused is None:
            assert len(render_table(report).splitlines()) == 3
            continue
        with pytest.raises(ReportParseError, match=f"^P3: {refused} range "):
            render_table(report)


@pytest.mark.parametrize("kernel,fake,refused", [
    ("wchd", lambda a, b, width: np.full(b.shape[:2], 1.5), "wchd"),  # max > 1
    ("wchd", lambda a, b, width: np.full(b.shape[:2], -0.1), "wchd"),  # min < 0
    ("entropy_range", lambda lo, hi: entropy_range(lo, hi)[::-1], "entropy"),  # min > max
], ids=["max above 1", "min below 0", "min above max"])
def test_analysis_checks_each_row_it_builds(tmp_path, monkeypatch, kernel, fake, refused):
    write_bank_dumps(tmp_path, SMALL, 1, chips=[0, 1], cycles=[0, 1])
    assert len(analyze_dumps(tmp_path, baseline="A").results) == 2  # valid rows pass
    monkeypatch.setattr(analyze, kernel, fake)
    with pytest.raises(ReportParseError, match=f"^A: {refused} range "):
        analyze_dumps(tmp_path, baseline="A")


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
