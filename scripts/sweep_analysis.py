#!/usr/bin/env python3
"""Count how often analysis finds the planted period and bias direction.

For every seed and every chips x cycles grid, simulates the default
floorplan with ``ChipBank``, writes the dumps as ``collect`` does
(``write_cycle`` and ``write_manifest``), runs ``analyze_dumps`` on them
and compares each design's row with the truth:

- the period against the period of the design's planted pattern;
- the BD column against ``orientation_sign`` of the design times that of
  the baseline.

Prints, per grid, each design's hits out of the seeds, then the misses as
(seed, design, column, got, want).  Slow: 40 seeds at 10 x 4 and 25 x 4 take a few
minutes.

    PYTHONPATH=src python3 scripts/sweep_analysis.py --seeds 40 --grids 10x4 25x4
"""

import argparse
import tempfile
from collections import Counter
from pathlib import Path

from srampuf.analyze import analyze_dumps
from srampuf.chipnet.dumpdir import write_cycle, write_manifest
from srampuf.chipnet.dumpfile import bits_to_words
from srampuf.floorplan import DEFAULT_DESIGNS
from srampuf.patterns import parse_run_length
from srampuf.simchip import ChipBank, ProcessParams, orientation_sign

BASELINE = "P1_a"  # analyze's default


def grid(text: str) -> tuple[int, int]:
    chips, _, cycles = text.partition("x")
    return int(chips), int(cycles)


def analyze_seed(seed: int, chips: int, cycles: int):
    """Rows of ``analyze_dumps`` on freshly written dumps of one seed."""
    params, designs = ProcessParams(), DEFAULT_DESIGNS
    bank = ChipBank(designs, params, seed)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for chip in range(chips):
            for cycle in range(cycles):
                snaps = bank.snapshots(chip, cycle)
                write_cycle(out, chip, cycle, designs,
                            [bits_to_words(snaps[d.name].bits) for d in designs])
        write_manifest(out, chips, cycles, designs, params, seed, ())
        return analyze_dumps(out, baseline=BASELINE).results


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=40, help="number of seeds")
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--grids", type=grid, nargs="+", default=[(10, 4), (25, 4)],
                    metavar="CHIPSxCYCLES")
    args = ap.parse_args()

    params = ProcessParams()
    sign = {d.name: orientation_sign(params, d.orientation) for d in DEFAULT_DESIGNS}
    want = {d.name: (parse_run_length(d.pattern).period, sign[d.name] * sign[BASELINE])
            for d in DEFAULT_DESIGNS}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    for chips, cycles in args.grids:
        hits, misses = Counter(), []
        for seed in seeds:
            for result in analyze_seed(seed, chips, cycles):
                for key, truth in zip(("period", "direction"), want[result.name]):
                    if result.row[key] == truth:
                        hits[result.name, key] += 1
                    else:
                        misses.append(f"  seed {seed} {result.name} {key} {result.row[key]} "
                                      f"want {truth}")
        print(f"{chips} chips x {cycles} cycles, seeds {seeds.start}-{seeds.stop - 1}, "
              f"baseline {BASELINE}")
        print("design  period  BD")
        rows = [(name, hits[name, "period"], hits[name, "direction"], len(seeds))
                for name in want]
        rows.append(("total", *(sum(row[i] for row in rows) for i in (1, 2, 3))))
        for name, period, direction, n in rows:
            print(f"{name:<7} {period:>3}/{n} {direction:>3}/{n}")
        print("\n".join(misses) if misses else "  no misses")


if __name__ == "__main__":
    main()
