#!/usr/bin/env python3
"""Exit code, wall time and peak memory of one CLI run in a fresh interpreter.

Usage, from the repository root:

    python3 tools/peak_rss.py det --input fixtures/toroidal_modulated.json --cutoff 1000 --mode series
    python3 tools/peak_rss.py --src ../parent/src trace --input fixtures/rank_one.json

Everything after the options is the argv of one ``specdet`` command.  It
runs through ``specdet.cli.run_command`` in a new Python process, which
imports specdet from ``--src`` (this tree's ``src`` by default) under
``-B``, so that it writes no bytecode into the tree it measures; the report
is discarded and errors go to stderr.  The line printed gives the exit
code, the wall time of the child process, start-up and imports included,
and its peak resident set size (``ru_maxrss``) in MB of 2^20 bytes.
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "from specdet.cli import run_command; sys.exit(run_command(sys.argv[2:]))")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Peak RSS of one specdet CLI run in a fresh interpreter.")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="source tree to import specdet from (default: this tree's src)")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="the specdet command line")
    args = parser.parse_args()
    if not args.argv:
        parser.error("no specdet command given")
    start = time.perf_counter()
    code = subprocess.run([sys.executable, "-B", "-c", CHILD, args.src, *args.argv],
                          stdout=subprocess.DEVNULL).returncode
    wall = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
    print(f"exit {code}  wall {wall:.2f} s  peak_rss {peak_kib / 1024:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
