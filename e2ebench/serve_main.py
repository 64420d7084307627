"""Run ``repro serve`` in this process, optionally with its layers traced.

    python3 e2ebench/serve_main.py [--trace-out FILE --run-id ID] -- SERVE-ARGS

Without ``--trace-out`` this is exactly ``python -m repro serve
SERVE-ARGS``.  With it, the store and serve layers of this process are
wrapped (see :mod:`layers`) and the trace is written to FILE when the
server exits; the worker processes the server forks are not traced.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--run-id", default="serve")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    from repro.cli import main as cli_main

    if args.trace_out is None:
        return cli_main(["serve", *serve_args])

    from layers import Tracer, instrument

    tracer = Tracer(args.run_id)
    instrument(tracer, server_only=True)
    try:
        return cli_main(["serve", *serve_args])
    finally:
        tracer.dump(Path(args.trace_out))


if __name__ == "__main__":
    sys.exit(main())
