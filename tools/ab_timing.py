#!/usr/bin/env python3
"""A/B timing of two specdet source trees on one benchmark workload, in one process.

Usage, from the repository root:

    python3 tools/ab_timing.py --a ../parent/src --b src --workload cli_mix --seed 1

Each of ``--a`` and ``--b`` is a directory holding a ``specdet`` package.
Both packages are copied into a temporary directory as ``specdet_a`` and
``specdet_b`` (specdet imports itself only relatively), so both load in
this process.  The workload's spec files and request list come from
``bench/workloads.py`` for the given seed, as ``bench/run.py`` makes them.

First every request runs once on each tree: the exit codes, stdout and
stderr must be equal, else each differing request is printed with what
differs, as ``tools/report_sweep.py --compare`` names it (the exit codes,
or the count of numbers that moved and the largest changes), and the exit
code is 1, with nothing timed.
Then ``--passes`` passes time every request on both trees back to back,
``a`` first on even (pass + request) and ``b`` first on odd, and each
request's latency on a tree is the fastest of its passes, as in
``bench/run.py``: requests_per_s is the request count over the sum of
latencies, latency_p50_s their median and latency_p90_s their nearest-rank
90th percentile.  Each request class (``Request.cls`` of
``bench/workloads.py``) also gets the ratio b/a of its latencies summed, so
that a change of the median can be traced to the classes that hold it.
Both trees run in the same minutes on the same process, so the load of
other tenants, which moves separate runs of a shared VM by tens of
percent, falls on both alike.  BLAS threads are set to the number
of usable cores, as ``bench/run.py`` sets them.

The last line of stdout is one JSON object with the metrics of ``a`` and
``b``, their ratios b/a (``ratio``) and the summed-latency ratio b/a of each
request class (``class_ratio``); the lines before it print the same, one
class a line.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("requests_per_s", "latency_p50_s", "latency_p90_s")
PACKAGES = ("specdet_a", "specdet_b")


def _call(run_command, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code = run_command(list(argv), out, err)
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", type=Path, required=True, help="source tree A (holds specdet/)")
    parser.add_argument("--b", type=Path, required=True, help="source tree B (holds specdet/)")
    parser.add_argument("--workload", default="cli_mix")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=8)
    args = parser.parse_args(argv)
    for tree in (args.a, args.b):
        if not (tree / "specdet" / "cli.py").is_file():
            parser.error(f"no specdet package under {tree}")

    # BLAS reads its thread count when numpy is first imported, below
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(len(os.sched_getaffinity(0)))
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tools")]
    import report_sweep
    import workloads
    from run import percentile

    with tempfile.TemporaryDirectory() as tmp:
        commands = []
        for name, tree in (("a", args.a), ("b", args.b)):
            shutil.copytree(tree / "specdet", Path(tmp) / f"specdet_{name}",
                            ignore=shutil.ignore_patterns("__pycache__"))
        sys.path.insert(0, tmp)
        importlib.invalidate_caches()
        for name in [name for name in sys.modules if name.split(".")[0] in PACKAGES]:
            del sys.modules[name]  # copies an earlier call loaded from another directory
        for name in ("a", "b"):
            commands.append(importlib.import_module(f"specdet_{name}.cli").run_command)
        workdir = Path(tmp) / "work"
        wl = workloads.generate(args.workload, args.seed, workdir.as_posix())
        workdir.mkdir()
        for name, data in wl.files.items():
            (workdir / name).write_bytes(data)
        requests = [req.argv for req in wl.requests]

        differ = 0
        for req in requests:
            (_, *report_a), (_, *report_b) = (_call(run, req) for run in commands)
            if report_a != report_b:
                differ += 1
                print(f"report differs: {' '.join(req)}: "
                      f"{report_sweep.describe(report_a, report_b)}")
        if differ:
            print(f"{differ} of {len(requests)} requests differ", file=sys.stderr)
            return 1

        best = [[float("inf")] * len(requests) for _ in commands]
        for p in range(args.passes):
            for i, req in enumerate(requests):
                for side in ((0, 1) if (p + i) % 2 == 0 else (1, 0)):
                    best[side][i] = min(best[side][i], _call(commands[side], req)[0])

    a, b = ({"requests_per_s": len(latencies) / sum(latencies),
             "latency_p50_s": statistics.median(latencies),
             "latency_p90_s": percentile(latencies, 90)} for latencies in best)
    ratio = {key: b[key] / a[key] for key in METRICS}
    summed = {cls: [0.0, 0.0] for cls in sorted({req.cls for req in wl.requests})}
    for i, req in enumerate(wl.requests):
        for side in (0, 1):
            summed[req.cls][side] += best[side][i]
    class_ratio = {cls: sb / sa for cls, (sa, sb) in summed.items()}
    for name, tree, m in (("a", args.a, a), ("b", args.b, b)):
        print(f"{name} {tree}: {m['requests_per_s']:.1f} req/s  "
              f"p50 {m['latency_p50_s'] * 1e3:.3f} ms  p90 {m['latency_p90_s'] * 1e3:.3f} ms")
    for cls, (sa, sb) in summed.items():
        print(f"class {cls}: summed latency b/a x{class_ratio[cls]:.3f}  "
              f"({sa * 1e3:.3f} -> {sb * 1e3:.3f} ms)")
    print("b/a: " + "  ".join(f"{key} x{ratio[key]:.3f}" for key in METRICS))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "passes": args.passes,
                      "requests": len(requests), "a": a, "b": b, "ratio": ratio,
                      "class_ratio": class_ratio}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
