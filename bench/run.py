#!/usr/bin/env python3
"""End-to-end benchmark of the specdet CLI.

Usage, from the repository root:

    python3 bench/run.py --workload cli_mix --seed 1 --seconds 55 --trace 0

The workload's spec files are generated from ``--seed`` into
``.bench_work/`` and driven through ``specdet.cli.run_command`` (imported
from ``src/``) in a closed loop: one client in one process, the next
request sent when the previous one returns, BLAS threads set to the number
of usable cores.  Every report is checked against references computed
here (``reference.py``), and the golden reports under ``tests/golden/``
are compared byte for byte.  Before timing, the goldens and the largest
request of each class run once, so lazy imports and BLAS start-up are not
charged to the first timed request.

``--trace 0`` runs whole passes over the request list for at least
``--seconds`` seconds and reports the end-to-end metrics, with each
request's latency taken as the fastest of its passes.  ``--trace 1``
runs the goldens and the request list once, each request untraced and then
traced by ``tracing.py``, reports the per-layer metrics and writes the spans
to ``.bench_out/``.  Per-layer counts are exact for a given seed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Earlier lines give machine
facts, sample counts and every failed request with its reason.  The
refusal probes of ``cli_mix`` run untimed, one at a time in child
processes under a time budget, since some may hang.  Their failures are listed and feed
``bench.error_rate``, but not ``failed``: some fail on purpose at the seed
state (ROADMAP aim 3) and are there to show when that changes.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: fresh interpreters timed for setup_s; the median is reported
SETUP_RUNS = 7
#: wall-time budget of one refusal probe's child process
PROBE_BUDGET_S = 3.0


def _cores() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup() -> float:
    """Wall time of a fresh interpreter that imports specdet.cli."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import specdet.cli"], cwd=ROOT,
                   env=_child_env(), check=True, timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": _cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


class Runner:
    """Runs requests in process and applies the failure rule to each."""

    def __init__(self, run_command, check):
        self.run_command = run_command
        self.check = check
        self.attempted = 0
        self.failures: list = []

    def call(self, req, run_command=None):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            code = (run_command or self.run_command)(list(req.argv), out, err)
        except Exception as exc:  # a crash is a failed request, not a stop
            code, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
        return code, time.perf_counter() - t0, out.getvalue(), err.getvalue()

    def verdict(self, req, code, stdout, stderr):
        self.attempted += 1
        if "golden" in req.expect:
            golden = (ROOT / req.expect["golden"]).read_text(encoding="utf-8")
            reason = None if (code, stdout) == (0, golden) else \
                f"exit {code}, report differs from {req.expect['golden']}"
        else:
            reason = self.check(code, stdout, req.allowed, req.expect)
        if reason is not None:
            if code not in (0, 4) and stderr:
                reason += f" ({stderr.strip()[:200]})"
            self.failures.append((req.cls, " ".join(req.argv), reason))

    def run(self, req) -> float:
        code, dt, out, err = self.call(req)
        self.verdict(req, code, out, err)
        return dt


def warmup_set(requests) -> list:
    """The largest request of each class by cutoff; the largest one also
    fixes the process's peak memory whatever the timed window reaches."""
    best = {}
    for req in requests:
        size = int(req.argv[req.argv.index("--cutoff") + 1])
        if req.cls not in best or size > best[req.cls][0]:
            best[req.cls] = (size, req)
    return [req for _, req in best.values()]


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def end_to_end(runner, requests, seconds) -> dict:
    """Whole passes over the request list until ``seconds`` have passed, so
    every run times the same mix.  A request's latency is the fastest of its
    passes.  On a shared host the load of other tenants comes and goes
    within seconds and only ever adds time, so slower repetitions measure
    the neighbours rather than the program; this is the rule Python's
    timeit follows.  latency_p50_s and latency_p90_s are taken over these
    per-request latencies, and requests_per_s is the closed-loop rate they
    give: requests in the list over the sum of their latencies.  The
    setup_s samples are spread between passes over the whole window."""
    setup, passes = [], []
    start = time.perf_counter()
    while time.perf_counter() < start + seconds:
        if time.perf_counter() >= start + len(setup) * seconds / SETUP_RUNS:
            setup.append(measure_setup())
        passes.append([runner.run(req) for req in requests])
    while len(setup) < SETUP_RUNS:
        setup.append(measure_setup())
    latencies = [min(times) for times in zip(*passes)]
    p90 = percentile(latencies, 90)
    print(json.dumps({"samples": len(latencies), "passes": len(passes),
                      "above_p90": sum(1 for x in latencies if x > p90),
                      "pass_s": [round(sum(times), 4) for times in passes],
                      "setup_runs_s": setup}))
    return {
        "setup_s": (statistics.median(setup), "s"),
        "requests_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_p90_s": (p90, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(runner, requests, spans_path) -> dict:
    """One pass, each request untraced and then traced, so both sides of
    bench.trace_overhead see the same requests at nearly the same moment.
    The goldens lead the pass: they touch every layer, so a bypassed layer
    reads a small time rather than exactly zero."""
    import tracing

    tracer = tracing.Tracer()
    root = tracer.wrap("cli.run_command", runner.run_command)
    untraced = 0.0
    for n, req in enumerate(requests):
        untraced += runner.run(req)
        tracer.request = n
        with tracing.instrument(tracer):
            code, _, out, err = runner.call(req, root)
        runner.verdict(req, code, out, err)
    metrics = tracer.layer_metrics()
    metrics["bench.trace_overhead"] = (1.0 - untraced / metrics["bench.traced_s"][0],
                                       "ratio")
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    return metrics


def run_probes(runner, probes) -> list:
    """Each probe runs in a child process, one at a time; one that overruns
    PROBE_BUDGET_S is killed and fails.  Returns the failures."""
    failures = []
    for req in probes:
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "from specdet.cli import main; main()",
                 *req.argv], cwd=ROOT, env=_child_env(), timeout=PROBE_BUDGET_S,
                capture_output=True, text=True)
        except subprocess.TimeoutExpired:
            failures.append((req.cls, " ".join(req.argv),
                             f"no exit within {PROBE_BUDGET_S:g} s, "
                             f"allowed {list(req.allowed)}"))
            continue
        reason = runner.check(proc.returncode, proc.stdout, req.allowed, req.expect)
        if reason is not None:
            failures.append((req.cls, " ".join(req.argv), reason))
    return failures


def measure(args, wl) -> int:
    import reference
    import workloads
    from specdet.cli import run_command

    facts = machine_facts()
    facts.update(workload=wl.name, seed=wl.seed, requests_per_pass=len(wl.requests),
                 spec_bytes=sum(len(b) for b in wl.files.values()))
    print(json.dumps({"machine": facts}))

    runner = Runner(run_command, reference.check)
    goldens = workloads.golden_requests()
    for req in goldens + warmup_set(wl.requests):
        runner.run(req)
    if args.trace:
        metrics = per_layer(runner, goldens + wl.requests,
                            Path(".bench_out") / f"spans-{wl.name}-{wl.seed}.json")
    else:
        metrics = end_to_end(runner, wl.requests, args.seconds)
    probe_failures = run_probes(runner, wl.probes)
    if args.trace:
        metrics["bench.error_rate"] = (
            (len(runner.failures) + len(probe_failures))
            / (runner.attempted + len(wl.probes)), "ratio")

    for label, rows in (("failed", runner.failures), ("probe_failed", probe_failures)):
        for cls, argv, reason in rows:
            print(json.dumps({label: cls, "argv": argv, "reason": reason}))
    print(json.dumps({"probes": len(wl.probes), "probe_failures": len(probe_failures)}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "specdet" / "cli.py").is_file():
        print(f"bench: no specdet sources under {SRC}", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy is first imported, below
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(_cores())
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))

    import reference
    import specdet
    import workloads

    if Path(specdet.__file__).resolve().parent != SRC / "specdet":
        print(f"bench: imported specdet from {specdet.__file__}", file=sys.stderr)
        return 2
    problems = reference.self_check()
    if problems:
        print(f"bench: checker self-check failed: {problems}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"have {list(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = Path(".bench_work") / f"{args.workload}-{args.seed}"
    wl = workloads.generate(args.workload, args.seed, workdir.as_posix())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for name, data in wl.files.items():
            (workdir / name).write_bytes(data)
        return measure(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
