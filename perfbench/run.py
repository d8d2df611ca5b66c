#!/usr/bin/env python3
"""srampuf benchmark: one workload per run, checked outputs, JSON result.

    python3 perfbench/run.py --workload collect-bank --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --golden

Run from the root of a source checkout; the library is imported from its
``src`` directory.  Human-readable lines come first, each metric with its
unit and sample count; the last line of standard output is one JSON
object with keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones, taken from spans that wrap each layer's functions.
``--golden`` runs the 50-chip x 10-cycle pipeline at seed 20260814 and
checks the dump-directory and report.json hashes.

Scratch files go under ``.perfbench/`` in the checkout; the spans of a
traced run are left there as ``spans-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE.parent / ".perfbench"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("collect-bank", "analyze-bank", "probe-sessions"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden", action="store_true",
                    help="run the 50x10 golden pipeline and check its hashes")
    args = ap.parse_args(argv)
    if not args.golden and args.workload is None:
        ap.error("give --workload or --golden")
    return args


def result_json(outcome) -> str:
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit, _) in outcome.metrics.items()}
    return json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "srampuf").is_dir():
        sys.exit(f"error: no srampuf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        if args.golden:
            ok, lines = workloads.golden(work)
            print("\n".join(lines))
            return 0 if ok else 1
        outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                                     bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if outcome.spans:
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps(outcome.spans), encoding="utf-8")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit, samples) in outcome.metrics.items():
        print(f"  {name} = {value:.6g} {unit} (n={samples})")
    for line in outcome.details:
        print(f"  {line}")
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  error_ratio = {ratio:.6g} ({outcome.failed} of {outcome.attempted} failed)")
    for error in outcome.errors:
        print(f"  FAILED {error}")
    print(result_json(outcome))
    return 0 if outcome.failed == 0 and outcome.attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
