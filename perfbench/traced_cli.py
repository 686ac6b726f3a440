"""Run ``roadtwin.cli.main`` in this interpreter, with or without span wrappers.

Usage: python perfbench/traced_cli.py --wrap 0|1 --out RESULT.json -- CLI ARGS...

Writes {"exit_code", "cpu_s", "spans"} to RESULT.json when the command
ends; ``cpu_s`` is the process CPU time spent inside ``main`` and is what
the tracing overhead is computed from.  The wrappers are removed again
before the result is written.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--wrap", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    if os.environ.get("ROADTWIN_THREADS") != "1":
        raise SystemExit("traced runs need ROADTWIN_THREADS=1: spans assume one thread")

    from roadtwin import cli

    tracer = spans.Tracer()
    saved = spans.install(tracer) if args.wrap else []
    try:
        t0 = time.process_time()
        code = tracer.call(spans.ROOT_SPAN, cli.main, (cli_args,))
        cpu_s = time.process_time() - t0
    finally:
        spans.restore(saved)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "cpu_s": cpu_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
