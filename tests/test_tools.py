"""``tools/report_sweep.py --compare``, the comparison every change's sweep
is read through: equal sweeps pass silently, and each kind of difference
is named."""

import importlib.util
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORT_SWEEP = ROOT / "tools" / "report_sweep.py"


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
