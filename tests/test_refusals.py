"""Malformed specs are refused byte for byte as recorded.

Every fixture under ``fixtures/bad/`` and every spec of ``malformed_specs``
runs through ``run_command`` in JSON and in text mode.  The exit code,
stdout and stderr must equal the strings in ``tests/refusals.json``, which
were recorded from the per-item validation walk before ``specfile`` checked
whole lists first.  So they pin every message, field path and exit code of
that walk, wherever the bad item sits in its list.

Rerecord, from the repository root, only for an intended change of a
message: ``PYTHONPATH=src python tests/test_refusals.py``.
"""

import copy
import io
import json
import math
import pathlib
import sys

import pytest

from specdet.cli import run_command

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDED = pathlib.Path(__file__).resolve().parent / "refusals.json"

BIG = 10 ** 399  # a 400-digit int: too large for a float or an int64


def _matrix(side, scale):
    return [[[scale / (1 + i + j), 0.125 * (i - j)] for j in range(side)]
            for i in range(side)]


#: one small valid spec per list that is checked whole, and the lists to
#: corrupt in it: (field, index slots of its records), or (field, None)
#: for a list of matrices
BASE = {
    "lattice_diagonal": ({"kind": "lattice_kernel", "family": "diagonal", "dim": 1,
                          "entries": [[-2, 0.5, 0.0], [0, 0.25, -0.125], [1, 0.0, 0.0],
                                      [3, 0.375, 0.25]]},
                         [("entries", 1)]),
    "lattice_rank_one": ({"kind": "lattice_kernel", "family": "rank_one", "dim": 1,
                          "g": [[0, 0.5, 0.0], [1, 0.25, 0.1], [-1, 0.125, 0.0]],
                          "h": [[1, 0.5, 0.25], [0, 0.25, 0.0], [2, -0.5, 0.0]]},
                         [("g", 1), ("h", 1)]),
    "lattice_banded": ({"kind": "lattice_kernel", "family": "banded", "dim": 1,
                        "support": 4,
                        "offsets": [[-1, 0.2, 0.0], [0, 0.1, 0.05], [1, 0.2, 0.0]]},
                       [("offsets", 1)]),
    "lattice_table": ({"kind": "lattice_kernel", "family": "table", "dim": 1,
                       "entries": [[0, 0, 0.5, 0.0], [0, 1, 0.25, 0.1], [-1, 2, 0.125, 0.0],
                                   [2, 2, 0.0625, -0.5]]},
                      [("entries", 2)]),
    "toroidal_modulated": ({"kind": "toroidal_symbol", "family": "modulated", "dim": 1,
                            "modes": [[1, 0.5, 0.0], [-1, 0.5, 0.0], [2, 0.25, 0.125]],
                            "decay_order": -2.0, "amplitude": [1.0, 0.0]},
                           [("modes", 1)]),
    "toroidal_modulated_2d": ({"kind": "toroidal_symbol", "family": "modulated", "dim": 2,
                               "modes": [[1, 0, 0.5, 0.0], [0, -1, 0.5, 0.0],
                                         [1, 1, 0.25, 0.125]],
                               "decay_order": -3.0, "amplitude": [1.0, 0.0]},
                              [("modes", 2)]),
    "toroidal_table": ({"kind": "toroidal_symbol", "family": "custom_table", "dim": 1,
                        "entries": [[0, 0, 0.5, 0.0], [1, -1, 0.25, 0.0], [-1, 1, 0.25, 0.0]],
                        "order": -2.0},
                       [("entries", 2)]),
    "block": ({"kind": "block_symbol",
               "blocks": [_matrix(2, 0.5), _matrix(3, 0.25), _matrix(1, 0.75)]},
              [("blocks", None)]),
    "bundle": ({"kind": "bundle_symbol", "fiber_dim": 2, "dual": [["a", 2], ["b", 1]],
                "sigma": [[1, 1, "a", _matrix(2, 0.5)], [1, 2, "b", _matrix(1, 0.25)],
                          [2, 2, "a", _matrix(2, 0.125)]]},
               [("sigma", None)]),
}

#: record corruptions: name -> change of a record with `slots` index slots
RECORD_FAULTS = {
    "bool index": lambda rec, slots: rec.__setitem__(0, True),
    "400-digit index": lambda rec, slots: rec.__setitem__(0, BIG),
    "string value": lambda rec, slots: rec.__setitem__(slots, "0.5"),
    "null value": lambda rec, slots: rec.__setitem__(slots + 1, None),
    "NaN value": lambda rec, slots: rec.__setitem__(slots, math.nan),
    "Infinity value": lambda rec, slots: rec.__setitem__(slots + 1, math.inf),
    "-Infinity value": lambda rec, slots: rec.__setitem__(slots, -math.inf),
    "400-digit value": lambda rec, slots: rec.__setitem__(slots, BIG),
    "short record": lambda rec, slots: rec.pop(),
    "long record": lambda rec, slots: rec.append(0.0),
}

#: matrix corruptions: name -> change of the matrix at pair (i, j)
MATRIX_FAULTS = {
    "string value": lambda m, i, j: m[i][j].__setitem__(0, "0.5"),
    "bool value": lambda m, i, j: m[i][j].__setitem__(1, False),
    "NaN value": lambda m, i, j: m[i][j].__setitem__(0, math.nan),
    "Infinity value": lambda m, i, j: m[i][j].__setitem__(1, math.inf),
    "400-digit value": lambda m, i, j: m[i][j].__setitem__(0, BIG),
    "3-item pair": lambda m, i, j: m[i][j].append(0.0),
    "1-item pair": lambda m, i, j: m[i][j].pop(),
    "pair not a list": lambda m, i, j: m[i].__setitem__(j, "z"),
    "ragged row": lambda m, i, j: m[i].pop(),
}

#: sigma record corruptions outside the matrix
SIGMA_FAULTS = {
    "bool index": lambda rec: rec.__setitem__(0, True),
    "string index": lambda rec: rec.__setitem__(1, "1"),
    "number id": lambda rec: rec.__setitem__(2, 1),
    "list id": lambda rec: rec.__setitem__(2, ["a"]),
    "short record": lambda rec: rec.pop(),
}

POSITIONS = {"first": lambda n: 0, "middle": lambda n: n // 2, "last": lambda n: n - 1}


def malformed_specs() -> dict:
    """name -> JSON text of a spec with one bad item, first, in the middle or
    last in its list."""
    specs = {}

    def add(name, obj):
        specs[name] = json.dumps(obj)

    for stem, (base, fields) in BASE.items():
        for fld, slots in fields:
            for where, pick in POSITIONS.items():
                n = pick(len(base[fld]))
                if slots is not None:
                    for fault, change in RECORD_FAULTS.items():
                        obj = copy.deepcopy(base)
                        change(obj[fld][n], slots)
                        add(f"{stem} {fld}[{where}] {fault}", obj)
                    continue
                for fault, change in MATRIX_FAULTS.items():
                    obj = copy.deepcopy(base)
                    rec = obj[fld][n]
                    matrix = rec[3] if stem == "bundle" else rec
                    i = pick(len(matrix))
                    change(matrix, i, pick(len(matrix[i])))
                    add(f"{stem} {fld}[{where}] {fault}", obj)
                if stem == "bundle":
                    for fault, change in SIGMA_FAULTS.items():
                        obj = copy.deepcopy(base)
                        change(obj[fld][n])
                        add(f"{stem} {fld}[{where}] {fault}", obj)
    spectral = {"kind": "spectral_model", "model": "table", "alpha": 2.0, "nu": 2.0,
                "eigenvalues": [0.0, 1.0, 4.0, 9.0], "multiplicities": [1, 2, 2, 2]}
    for where, pick in POSITIONS.items():
        for fld, bad in [("eigenvalues", "0.5"), ("eigenvalues", True),
                         ("eigenvalues", math.nan), ("eigenvalues", math.inf),
                         ("eigenvalues", BIG), ("eigenvalues", -1.0),
                         ("multiplicities", True), ("multiplicities", 2.0),
                         ("multiplicities", 0)]:
            obj = copy.deepcopy(spectral)
            obj[fld][pick(len(obj[fld]))] = bad
            add(f"spectral_table {fld}[{where}] {json.dumps(bad)[:12]}", obj)
    return specs


BAD_FIXTURES = {f"fixtures/bad/{p.name}": p
                for p in sorted((ROOT / "fixtures/bad").glob("*.json"))}
GENERATED = malformed_specs()


def _cases(tmp: pathlib.Path) -> dict:
    """case name -> spec path: the bad fixtures, then the generated specs."""
    cases = dict(BAD_FIXTURES)
    for n, (name, text) in enumerate(GENERATED.items()):
        path = tmp / f"spec-{n:03d}.json"
        path.write_text(text, encoding="utf-8")
        cases[name] = path
    return cases


def _refusal(path) -> dict:
    """(exit code, stdout, stderr) of `det` on a spec, per output mode."""
    got = {}
    for output in ("json", "text"):
        out, err = io.StringIO(), io.StringIO()
        code = run_command(["det", "--input", str(path), "--output", output], out, err)
        got[output] = [code, out.getvalue(), err.getvalue()]
    return got


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    return _cases(tmp_path_factory.mktemp("malformed"))


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORDED.read_text(encoding="utf-8"))


def test_every_case_is_recorded(cases, recorded):
    assert sorted(cases) == sorted(recorded)


@pytest.mark.parametrize("name", [*BAD_FIXTURES, *GENERATED])
def test_refusal_is_byte_identical(cases, recorded, name):
    got = _refusal(cases[name])
    assert got == recorded[name]
    assert got["json"][0] == got["text"][0] == 2


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recorded = {name: _refusal(path) for name, path in _cases(pathlib.Path(tmp)).items()}
    RECORDED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"recorded {len(recorded)} refusals to {RECORDED}", file=sys.stderr)
