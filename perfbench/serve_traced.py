"""Run ``srampuf serve`` with the benchmark's layer spans installed.

Usage: serve_traced.py SPANS_JSON <srampuf arguments...>

SIGTERM stops the server as Ctrl-C would; the spans recorded until then
are written to SPANS_JSON as a list of records (see tracer.Tracer.records).
"""

import signal
import sys

import srampuf.cli as cli
from tracer import Tracer


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> int:
    signal.signal(signal.SIGTERM, _interrupt)
    spans_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer:
        code = cli.main(args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
