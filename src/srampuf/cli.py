"""Command-line pipeline: gen -> serve -> collect -> analyze -> report."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analyze import PROFILE_MODES, analysis_to_report, analyze_dumps, write_plot_data
from .chipnet.collector import collect
from .chipnet.server import ChipServer, serve
from .floorplan import format_config, load_config, parse_config
from .report import load_report, render_table, save_report

# Every error a command reports derives from one of these two: ConnectionLost
# is a ConnectionError, so an OSError; the rest are ValueErrors.
_FAILURES = (OSError, ValueError)


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"endpoint must be host:port, got {text!r}")
    return host or "127.0.0.1", int(port)


def _load_plan(config: str | None):
    return load_config(config) if config else parse_config("")


def cmd_gen(args) -> int:
    params, designs = _load_plan(args.config)
    out = Path(args.out)
    out.write_text(format_config(params, designs), encoding="utf-8")
    print(f"wrote {len(designs)} designs to {out}")
    return 0


def cmd_serve(args) -> int:
    params, designs = _load_plan(args.config)
    serve(designs, params, args.seed, _parse_endpoint(args.endpoint))
    return 0


def cmd_collect(args) -> int:
    params, designs = _load_plan(args.config)
    if args.endpoint:  # the server's seed is known only if given
        files = collect(_parse_endpoint(args.endpoint), args.chips, args.cycles, args.out,
                        designs, params, args.seed)
    else:
        seed = 0 if args.seed is None else args.seed
        with ChipServer(designs, params, seed) as server:
            files = collect(server.endpoint, args.chips, args.cycles, args.out,
                            designs, params, seed)
    print(f"wrote {len(files)} dump files to {args.out}")
    return 0


def cmd_analyze(args) -> int:
    run = analyze_dumps(args.dumps, baseline=args.baseline,
                        profile_mode=args.profile_mode)
    out = Path(args.out)
    save_report(analysis_to_report(run), out)
    plot_dir = out.parent / (out.stem + "_plots")
    plots = write_plot_data(run, plot_dir)
    print(f"wrote {out} and {len(plots)} plot data files to {plot_dir}")
    return 0


def cmd_report(args) -> int:
    report = load_report(args.report)
    sys.stdout.write(render_table(report))
    notes = report.get("notes") or []
    if notes:
        sys.stdout.write("\n")
        for note in notes:
            sys.stdout.write(f"note: {note}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srampuf",
        description="SRAM PUF characterization workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a canonical floorplan configuration")
    p.add_argument("--config", help="input configuration to validate and normalize")
    p.add_argument("--out", default="floorplan.cfg", help="output path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("serve", help="serve a simulated chip bank over TCP")
    p.add_argument("--config", help="floorplan configuration")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--endpoint", default="127.0.0.1:9753", help="host:port to bind")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("collect", help="power-cycle chips and dump every reading")
    p.add_argument("--endpoint", help="server to contact; default runs one in-process")
    p.add_argument("--config", help="floorplan configuration")
    p.add_argument("--seed", type=int, help="master seed (default 0); with --endpoint, "
                   "the server's, recorded only when given")
    p.add_argument("--chips", type=int, default=50, help="number of chips")
    p.add_argument("--cycles", type=int, default=10, help="power cycles per chip")
    p.add_argument("--out", default="dumps", help="dump directory")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("analyze", help="compute the results table from dumps")
    p.add_argument("dumps", help="dump directory")
    p.add_argument("--baseline", default="P1_a", help="bias-direction baseline design")
    p.add_argument("--profile-mode", choices=PROFILE_MODES, default="mean",
                   help="bias profile: chip average or strongest single chip")
    p.add_argument("--out", default="report.json", help="report path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("report", help="render a report as a text table")
    p.add_argument("report", help="report JSON path")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _FAILURES as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
