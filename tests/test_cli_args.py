"""The option-table parser ``cli._plain_args`` against argparse: wherever the
table returns a namespace, argparse returns an equal one, and wherever
argparse refuses a command line, the table leaves it to argparse.  Every
command line the benchmark, the goldens and the report sweep's fixture
cases run takes the table path."""

import importlib
import importlib.util
import pathlib

from hypothesis import given, settings, strategies as st

from specdet import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: abbreviated, unknown and bare flags beside the exact ones
FLAGS = [*cli._OPTIONS, "--in", "--lam", "--outp", "--ou", "--o", "--mo", "--bandwidth",
         "--inputs", "-h", "--help", "--", "-"]
#: values each option takes
GOOD = {"--input": ["fixtures/zero.json", "x", "a b", ""],
        "--lambda": ["0.3", "0.3,0", "0.7,-0.2", "1e308,1e308"],
        "--order": ["30", "4", " 7"],
        "--cutoff": ["8", "12", "0"],
        "--tol": ["1e-10", "nan", "inf"],
        "--mode": ["series", "oracle", "both"],
        "--output": ["json", "text"]}
#: values that start with '-', or that some option refuses
ODD = ["-0.3,0", "-3", "-1e-3", "--", "-", "-h", "--output", "x", "1.5", "nan,nan",
       "inf,0", "1e400", "1,2,3", "yaml", "", "=", "det", *sum(GOOD.values(), [])]


@st.composite
def command_lines(draw):
    argv = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 3)):  # mostly an exact option and a value it takes
            flag = draw(st.sampled_from(list(GOOD)))
            value = draw(st.sampled_from(GOOD[flag]))
            form = draw(st.sampled_from(["=", " "]))
        else:
            flag, value = draw(st.sampled_from(FLAGS)), draw(st.sampled_from(ODD))
            form = draw(st.sampled_from(["=", " ", "alone"]))
        argv += {"=": [f"{flag}={value}"], " ": [flag, value], "alone": [flag]}[form]
    if draw(st.integers(0, 3)):  # most lines give --input somewhere
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = draw(st.sampled_from([["--input", "fixtures/zero.json"], ["--input=x"]]))
    command = draw(st.sampled_from([*cli._COMMANDS] * 4 + ["bogus", "-h", "de", "--input"]))
    return [command, *argv]


def _fields(namespace) -> dict:
    # repr, so that a nan --tol compares equal to itself
    return {k: repr(v) for k, v in vars(namespace).items()}


def test_the_table_parser_agrees_with_argparse():
    counts = {"table": 0, "refused": 0}

    @settings(max_examples=600, deadline=None, database=None, derandomize=True)
    @given(command_lines())
    def agree(argv):
        plain = cli._plain_args(argv)
        try:
            parsed = cli._build_parser().parse_args(argv)
        except cli._ParserExit:
            assert plain is None
            counts["refused"] += 1
            return
        if plain is not None:
            assert _fields(plain) == _fields(parsed)
            counts["table"] += 1

    agree()
    # the grammar reaches both outcomes often
    assert counts["table"] >= 100 and counts["refused"] >= 100, counts


def test_no_option_has_a_string_default_with_a_type():
    # argparse converts such a default; the table takes it as it stands
    for flag, kw in cli._OPTIONS.items():
        assert not (isinstance(kw.get("default"), str) and "type" in kw), flag


def test_every_bench_golden_and_sweep_line_takes_the_table_path(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    lines = [req.argv for req in workloads.golden_requests()]
    for name in workloads.WORKLOADS:
        for seed in (1, 7):
            wl = workloads.generate(name, seed, "/work")
            lines += [req.argv for req in wl.requests + wl.probes]
    spec = importlib.util.spec_from_file_location("report_sweep",
                                                  ROOT / "tools" / "report_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    for cutoff in (None, 64):
        lines += [argv for argv in sweep.cases(cutoff) if argv not in sweep.SHAPES]
    assert len(lines) > 2600
    for argv in lines:
        assert cli._plain_args(argv) == cli._build_parser().parse_args(argv), argv
