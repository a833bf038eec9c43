"""``tools/report_sweep.py --compare``, the comparison every change's sweep
is read through: equal sweeps pass silently, and each kind of difference
is named, and a sweep records a case that raises and goes on.
``tools/ab_timing.py`` times two trees only when their reports
agree, per request class too, and names each request where they do not,
with what differs.
``tools/peak_rss.py`` prints the exit code and peak memory of one command.
Neither leaves bytecode in the source tree it runs."""

import importlib.util
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORT_SWEEP = ROOT / "tools" / "report_sweep.py"
PEAK_RSS = ROOT / "tools" / "peak_rss.py"


def _report_sweep():
    spec = importlib.util.spec_from_file_location("report_sweep", REPORT_SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compare(tmp_path, monkeypatch, capsys, before, after):
    """Exit code, stdout and stderr of ``--compare`` on two sweep files."""
    paths = []
    for name, sweep in (("before", before), ("after", after)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(sweep))
    monkeypatch.setattr(sys, "argv", ["report_sweep.py", "--compare", *map(str, paths)])
    code = _report_sweep().main()
    out, err = capsys.readouterr()
    return code, out, err


SWEEP = {
    "det --input a.json": [0, '{"value": [0.5, -1e-17]}\n', ""],
    "trace --input a.json": [0, "trace = 1.25\n", ""],
    "radius --input a.json": [3, "", "too big\n"],
}


def test_equal_sweeps_pass_silently(tmp_path, monkeypatch, capsys):
    code, out, err = _compare(tmp_path, monkeypatch, capsys, SWEEP, dict(SWEEP))
    assert (code, out, err) == (0, "", "0 of 3 cases differ\n")


def test_every_kind_of_difference_is_named(tmp_path, monkeypatch, capsys):
    after = {
        "det --input a.json": [0, '{"value": [0.75, 0.0]}\n', ""],
        "trace --input a.json": [0, "trace is 1.25\n", ""],
        "radius --input a.json": [0, "radius = 2\n", ""],
        "norm-profile --input a.json": [0, "", ""],
    }
    code, out, err = _compare(tmp_path, monkeypatch, capsys, SWEEP, after)
    assert code == 1 and err == "4 of 4 cases differ\n"
    assert out.splitlines() == [
        "det --input a.json: stdout 2 numbers moved, largest change: "
        "relative 1 (-1e-17 -> 0.0), absolute 0.25 (0.5 -> 0.75), "
        "relative above 1e-09 0.333 (0.5 -> 0.75)",
        "norm-profile --input a.json: only in the second sweep",
        "radius --input a.json: exit 3 -> 0",
        "trace --input a.json: stdout text differs",
    ]
    code, out, _ = _compare(tmp_path, monkeypatch, capsys, after, SWEEP)
    assert "norm-profile --input a.json: only in the first sweep" in out.splitlines()


def test_rounding_noise_to_zero_is_no_moved_value(tmp_path, monkeypatch, capsys):
    after = dict(SWEEP, **{"det --input a.json": [0, '{"value": [0.5, 0.0]}\n', ""]})
    code, out, _ = _compare(tmp_path, monkeypatch, capsys, SWEEP, after)
    assert code == 1
    assert out == ("det --input a.json: stdout 1 numbers moved, largest change: "
                   "relative 1 (-1e-17 -> 0.0), absolute 1e-17 (-1e-17 -> 0.0), "
                   "relative above 1e-09 none\n")


AB_TIMING = ROOT / "tools" / "ab_timing.py"


def _ab_timing(a, b):
    """``tools/ab_timing.py`` on cli_mix seed 3, one pass."""
    return subprocess.run([sys.executable, str(AB_TIMING), "--a", str(a), "--b", str(b),
                           "--workload", "cli_mix", "--seed", "3", "--passes", "1"],
                          capture_output=True, text=True, timeout=300)


def test_ab_timing_of_a_tree_against_itself_reports_both_sides():
    proc = _ab_timing(ROOT / "src", ROOT / "src")
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout.splitlines()[-1])
    assert (report["workload"], report["seed"], report["passes"]) == ("cli_mix", 3, 1)
    assert report["requests"] > 200
    metrics = {"requests_per_s", "latency_p50_s", "latency_p90_s"}
    assert set(report["a"]) == set(report["b"]) == set(report["ratio"]) == metrics
    assert all(report[side][key] > 0 for side in ("a", "b") for key in metrics)
    # each request class's summed-latency ratio, in the JSON and one line each before it
    ratios = report["class_ratio"]
    assert {"power_decay:det", "modulated-12:det", "block:trace"} <= set(ratios)
    assert all(r > 0 for r in ratios.values())
    lines = [line for line in proc.stdout.splitlines() if line.startswith("class ")]
    assert len(lines) == len(ratios)
    for line, (cls, r) in zip(lines, sorted(ratios.items())):
        assert re.fullmatch(rf"class {re.escape(cls)}: summed latency b/a x{r:.3f}  "
                            r"\(\d+\.\d{3} -> \d+\.\d{3} ms\)", line)


def test_ab_timing_names_each_request_whose_report_differs(tmp_path):
    # a copy of specdet whose trace reports gain a line
    shutil.copytree(ROOT / "src" / "specdet", tmp_path / "specdet",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "specdet" / "cli.py"
    head = '    """Run one CLI invocation; returns the process exit code."""\n'
    text = cli.read_text()
    assert text.count(head) == 1
    cli.write_text(text.replace(head, head + '    if argv and argv[0] == "trace":\n'
                                            '        stdout.write("changed\\n")\n'))
    proc = _ab_timing(ROOT / "src", tmp_path)
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert len(lines) > 1
    assert all(line.startswith("report differs: trace --input ") for line in lines)
    differ, total = re.fullmatch(r"(\d+) of (\d+) requests differ\n", proc.stderr).groups()
    assert int(differ) == len(lines) < int(total)


def test_ab_timing_says_which_numbers_moved(tmp_path):
    # a copy of specdet whose absolute deviations grow by 2.5e-16: one
    # number of a report moves, as when a product rounds differently
    shutil.copytree(ROOT / "src" / "specdet", tmp_path / "specdet",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "specdet" / "cli.py"
    line = '    return {"abs": _num(abs_dev), "rel": _num(rel)}\n'
    text = cli.read_text()
    assert text.count(line) == 1
    cli.write_text(text.replace(line, line.replace("_num(abs_dev)", "_num(abs_dev + 2.5e-16)")))
    proc = _ab_timing(ROOT / "src", tmp_path)
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert len(lines) > 1
    for line in lines:
        argv, summary = re.fullmatch(r"report differs: (.+?): (stdout .*)", line).groups()
        assert argv.split()[0] in ("det", "trace", "compare")
        assert re.fullmatch(r"stdout 1 numbers moved, largest change: relative \S+ \(.+\), "
                            r"absolute \S+ \(.+\), relative above 1e-09 .+", summary)
    assert "relative 1 (0.0 -> 2.5e-16), absolute 2.5e-16 (0.0 -> 2.5e-16)" in proc.stdout
    differ, total = re.fullmatch(r"(\d+) of (\d+) requests differ\n", proc.stderr).groups()
    assert int(differ) == len(lines) < int(total)


@pytest.mark.parametrize("spec, code", [("fixtures/zero.json", 0), ("fixtures/missing.json", 2)])
def test_peak_rss_prints_the_exit_code_and_a_positive_peak(spec, code):
    proc = subprocess.run([sys.executable, str(PEAK_RSS), "det", "--input", spec],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    line = re.fullmatch(r"exit (\d+)  wall (\S+) s  peak_rss (\S+) MB\n", proc.stdout)
    assert line is not None, proc.stdout
    assert int(line[1]) == code
    assert float(line[2]) > 0 and float(line[3]) > 0


#: a child that sweeps two cases of a source tree through ``report_sweep.sweep``
SWEEP_CHILD = """
import importlib.util, json, pathlib, sys
spec = importlib.util.spec_from_file_location("report_sweep", sys.argv[1])
module = importlib.util.module_from_spec(spec)
sys.dont_write_bytecode = True  # for the tool itself; sweep must set it again
spec.loader.exec_module(module)
sys.dont_write_bytecode = False
module.cases = lambda cutoff: [["det", "--input", "fixtures/rank_one.json"],
                               ["trace", "--input", "fixtures/toroidal_modulated.json"]]
results = module.sweep(pathlib.Path(sys.argv[2]), None)
print(sorted(code for code, _, _ in results.values()))
"""


@pytest.mark.parametrize("threads", [None, "2"])
def test_report_sweep_runs_blas_on_one_thread_unless_told(threads):
    # sweeps taken at different thread counts differ in dense trace powers
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update({} if threads is None else {"OPENBLAS_NUM_THREADS": threads})
    proc = subprocess.run([sys.executable, "-c", SWEEP_CHILD, str(REPORT_SWEEP),
                           str(ROOT / "src")], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == (f"specdet from {ROOT / 'src' / 'specdet'}, "
                           f"BLAS threads {threads or 1}\n")


#: a specdet package whose run_command raises on trace and answers det
RAISING_CLI = """
def run_command(argv, stdout, stderr):
    if argv[0] == "trace":
        raise ValueError("array is too big")
    stdout.write("ok\\n")
    return 0
"""


def test_report_sweep_records_a_raising_case_and_goes_on(tmp_path):
    # one case of the swept tree that raises must not end the sweep
    (tmp_path / "specdet").mkdir()
    (tmp_path / "specdet" / "__init__.py").write_text("")
    (tmp_path / "specdet" / "cli.py").write_text(RAISING_CLI)
    child = SWEEP_CHILD.replace("print(sorted(code for code, _, _ in results.values()))",
                                "print(json.dumps(results, sort_keys=True))")
    proc = subprocess.run([sys.executable, "-c", child, str(REPORT_SWEEP), str(tmp_path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "det --input fixtures/rank_one.json": [0, "ok\n", ""],
        "trace --input fixtures/toroidal_modulated.json":
            [1, "", "ValueError: array is too big\n"]}


@pytest.mark.parametrize("tool", ["peak_rss", "report_sweep"])
def test_tools_write_no_bytecode_into_the_tree_they_run(tmp_path, tool):
    # bytecode in a measured tree speeds up its imports, and so moves setup_s
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "specdet", src / "specdet",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    argv = ([str(PEAK_RSS), "--src", str(src), "det", "--input", "fixtures/rank_one.json"]
            if tool == "peak_rss" else ["-c", SWEEP_CHILD, str(REPORT_SWEEP), str(src)])
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("exit 0  " if tool == "peak_rss" else "[0, 0]")
    assert not list(src.rglob("__pycache__"))
