#!/usr/bin/env python3
"""Sweep the CLI's reports over the shipped fixtures, to show what a change moves.

Usage, from the repository root:

    python3 tools/report_sweep.py --out after.json
    python3 tools/report_sweep.py --src ../parent/src --out before.json
    python3 tools/report_sweep.py --compare before.json after.json

A sweep runs every good fixture (``fixtures/*.json``) through
``specdet.cli.run_command``.  It runs ``det`` and ``trace`` in each
``--mode`` (both, series, oracle), and ``radius``, ``compare`` and
``norm-profile``, each at lambda 0.1, 0.7-0.2i and 3, with ``--output``
json and text: 1134 cases on the 21 fixtures.  These are all written as
``--opt value`` with a lambda of at least 0, so 20 command-line shapes
follow (``SHAPES``), all but two on one fixture: both value forms with a
negative lambda, abbreviated and repeated options, usage errors and help,
most of which only argparse reads, the modes, orders and tolerances that
commands refuse, a norm profile of one cutoff, and two requests too large
to size, a 2-D x-independent quantization and a rank-one truncation whose
CSR index numpy cannot size.
It writes the exit code, stdout and stderr of each of the 1154 cases to
one JSON file, keyed by the case's arguments; a case whose
``run_command`` raises is written as exit 1, empty stdout and
``ExceptionType: message`` on stderr, and the sweep goes on.
``--src`` imports specdet from another source tree, such as an export of
an earlier commit; the fixtures are always this tree's.
A sweep runs BLAS on one thread unless ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS`` says otherwise, and prints the
OpenBLAS count beside the source tree: dense trace powers at side 129 move
in their last bits with the thread count.
``--cutoff R`` passes ``--cutoff R`` to every fixture case: at R >= 64 the 1-D
lattice fixtures are at least 128 wide and leave the dense trace-power
chain, which they keep at the CLI's default cutoff 8.

``--compare A B`` lists the cases whose exit code, stdout or stderr differ.
Where two outputs differ only in their numbers, it gives the count of
numbers that moved, the largest relative change ``|a - b| / max(|a|,
|b|)``, the largest absolute change ``|a - b|`` and the largest relative
change among the pairs with ``max(|a|, |b|) > 1e-9``, each with its pair:
rounding noise that becomes an exact zero (``-1e-17 -> 0.0``) is a
relative change of 1, and the last two tell it from a moved value.
Otherwise it says that the text differs.  It prints nothing else for
equal sweeps, and exits 1 when some case differs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ([("det", mode) for mode in ("both", "series", "oracle")]
            + [("trace", mode) for mode in ("both", "series", "oracle")]
            + [("radius", None), ("compare", None), ("norm-profile", None)])
LAMBDAS = ("0.1", "0.7,-0.2", "3")
OUTPUTS = ("json", "text")
SHAPE_FIXTURE = "fixtures/rank_one.json"
#: command lines shaped unlike the fixture cases, whatever --cutoff is
SHAPES = [["-h"], ["det", "-h"], ["det", "--outp", "json"]] + [
    ["det", "--input", SHAPE_FIXTURE, *rest]
    for rest in (["--lambda=-0.3,0"], ["--lambda", "-0.3"], ["--lam", "0.3"],
                 ["--outp", "json"], ["--output=json", "--output", "text"],
                 ["--output", "yaml", "--output", "json"], ["--order", "x"],
                 ["--bandwidth", "3"], ["--mode", "oracle", "--order", "0"], ["--tol", "0"])] + [
    [command, "--input", SHAPE_FIXTURE, *rest]
    for command, rest in (("compare", ["--mode", "series"]), ("radius", ["--mode", "oracle"]),
                          ("norm-profile", ["--mode", "oracle"]), ("radius", ["--order", "2"]))] + [
    ["det", "--input", "fixtures/toroidal_power_decay_2d.json", "--cutoff", "10000000000",
     "--mode", "series"],
    ["det", "--input", SHAPE_FIXTURE, "--cutoff", str(2 ** 61), "--mode", "series"],
    ["norm-profile", "--input", "fixtures/sharpness.json", "--cutoff", "1"]]
#: a number, with its sign; text reports write complex values as "a - bi",
#: so a sign may stand one space before its digits
NUMBER = re.compile(r"(?:[-+] ?)?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\binf\b|\bnan\b")
#: magnitude above which a number counts as a value rather than rounding noise
NOISE = 1e-9


def cases(cutoff: int | None = None) -> list:
    """argv lists of the sweep, fixture paths relative to the repository
    root: the fixture cases, then SHAPES."""
    fixtures = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "fixtures").glob("*.json"))
    out = []
    for path in fixtures:
        for command, mode in COMMANDS:
            for lam in LAMBDAS:
                for fmt in OUTPUTS:
                    argv = [command, "--input", path, "--lambda", lam, "--output", fmt]
                    argv += ["--mode", mode] if mode else []
                    out.append(argv + (["--cutoff", str(cutoff)] if cutoff else []))
    return out + SHAPES


def sweep(src: Path, cutoff: int | None) -> dict:
    sys.dont_write_bytecode = True  # a cache in the swept tree moves later timings
    # dense trace powers move in their last bits with the BLAS thread count,
    # which BLAS reads when numpy is first imported, below
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import specdet
    from specdet.cli import run_command

    print(f"specdet from {Path(specdet.__file__).parent}, "
          f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}", file=sys.stderr)

    os.chdir(ROOT)  # reports echo the input path as given
    results = {}
    for argv in cases(cutoff):
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            code = run_command(argv, stdout, stderr)
            result = [code, stdout.getvalue(), stderr.getvalue()]
        except Exception as exc:  # a fault of the swept tree is one case, not the sweep's end
            result = [1, "", f"{type(exc).__name__}: {exc}\n"]
        results[" ".join(argv)] = result
    return results


def _rel(pair) -> float:
    x, y = pair
    return abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0


def _abs(pair) -> float:
    x, y = pair
    return abs(x - y) if x != y else 0.0


def _numbers_moved(a: str, b: str):
    """(count, [(label, change, pair)]) when ``a`` and ``b`` differ only in
    their numbers, else None: the largest relative change, the largest
    absolute change and the largest relative change among the pairs above
    NOISE, each with its pair (None for the last when no pair is above)."""
    if NUMBER.split(a) != NUMBER.split(b):
        return None
    pairs = [(float(x.replace(" ", "")), float(y.replace(" ", "")))
             for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)) if x != y]
    values = [p for p in pairs if max(abs(p[0]), abs(p[1])) > NOISE]
    worst = []
    for label, among, change in (("relative", pairs, _rel), ("absolute", pairs, _abs),
                                 (f"relative above {NOISE:g}", values, _rel)):
        pair = max(among, key=change, default=None)
        worst.append((label, None if pair is None else change(pair), pair))
    return len(pairs), worst


def describe(before, after) -> str:
    """What differs between two unequal ``[exit code, stdout, stderr]``
    results: the exit codes, else for each differing stream the numbers
    that moved (``_numbers_moved``) or that its text differs."""
    (code_a, out_a, err_a), (code_b, out_b, err_b) = before, after
    if code_a != code_b:
        return f"exit {code_a} -> {code_b}"
    notes = []
    for name, a, b in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
        if a == b:
            continue
        moved = _numbers_moved(a, b)
        if moved is None:
            notes.append(f"{name} text differs")
        else:
            count, worst = moved
            largest = ", ".join(
                f"{label} none" if pair is None
                else f"{label} {change:.3g} ({pair[0]!r} -> {pair[1]!r})"
                for label, change, pair in worst)
            notes.append(f"{name} {count} numbers moved, largest change: {largest}")
    return "; ".join(notes)


def compare(before: dict, after: dict) -> int:
    differing = 0
    for case in sorted(set(before) | set(after)):
        if case not in before or case not in after:
            differing += 1
            print(f"{case}: only in {'the second' if case in after else 'the first'} sweep")
        elif before[case] != after[case]:
            differing += 1
            print(f"{case}: {describe(before[case], after[case])}")
    print(f"{differing} of {len(set(before) | set(after))} cases differ", file=sys.stderr)
    return 1 if differing else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree to import specdet from (default: this tree's src)")
    parser.add_argument("--cutoff", type=int,
                        help="pass this --cutoff to every case (default: the CLI's)")
    parser.add_argument("--out", type=Path, help="file to write the sweep to")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="list the cases that differ between two sweep files")
    args = parser.parse_args()
    if args.compare:
        before, after = (json.loads(p.read_text()) for p in args.compare)
        return compare(before, after)
    if args.out is None:
        parser.error("give --out FILE or --compare A B")
    out = args.out.resolve()  # the sweep runs from the repository root
    results = sweep(args.src.resolve(), args.cutoff)
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"{len(results)} cases written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
