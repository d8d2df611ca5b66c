"""The whole pipeline over random floorplans inside the wire limits.

The default floorplan has widths 32 and 64 only; these floorplans put every
even width from 2 to 64 through frame encode, frame decode and dump write.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings

from oracles import designs, parse_rendered_table
from srampuf.chipnet.dumpdir import dump_filename
from srampuf.chipnet.dumpfile import parse_dump, words_to_bits
from srampuf.cli import main
from srampuf.floorplan import format_config
from srampuf.simchip import ChipBank, ProcessParams

CHIPS = CYCLES = 3
SEED = 4242
PARAMS = ProcessParams()


def run(argv):
    """(exit code, stdout, stderr) of one CLI command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_dumps_are_the_bank_bits(dumps: Path, floorplan) -> None:
    bank = ChipBank(floorplan, PARAMS, SEED)
    for chip in range(CHIPS):
        for cycle in range(CYCLES):
            snaps = bank.snapshots(chip, cycle)
            for d in floorplan:
                path = dumps / dump_filename(d.name, chip, cycle)
                header, words = parse_dump(path.read_bytes())
                assert np.array_equal(words_to_bits(words, header.width),
                                      snaps[d.name].bits), path.name


@settings(max_examples=25, derandomize=True, deadline=None)
@given(designs())
def test_random_floorplans_give_a_table_or_one_error_line(floorplan):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg, dumps, report = root / "floorplan.cfg", root / "dumps", root / "report.json"
        cfg.write_text(format_config(PARAMS, floorplan), encoding="utf-8")
        code, _, err = run(["collect", "--config", str(cfg), "--seed", str(SEED),
                            "--chips", str(CHIPS), "--cycles", str(CYCLES),
                            "--out", str(dumps)])
        assert code == 0, err
        assert_dumps_are_the_bank_bits(dumps, floorplan)
        for argv in (["analyze", str(dumps), "--baseline", "D0", "--out", str(report)],
                     ["report", str(report)]):
            code, out, err = run(argv)
            if code == 1:
                assert err.startswith("error: ") and err.count("\n") == 1, err
                return
            assert code == 0 and not err, err
        table = out.split("\n\n")[0]
        assert [row["SRAM-PUF"] for row in parse_rendered_table(table)] == [
            d.name for d in floorplan]
