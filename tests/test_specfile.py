import json
import math

import numpy as np
import pytest

import specdet.specfile as specfile
from specdet import (
    BlockSymbol,
    BundleSymbol,
    LatticeKernel,
    SpectralModel,
    ToroidalSymbol,
    build_operator,
    emit_spec,
    parse_spec,
    parse_spec_text,
)
from specdet.errors import SpecParseError, SpecValidationError

FIXTURES = "fixtures"


def test_minimal_diagonal_example():
    spec = parse_spec_text(
        '{"kind":"lattice_kernel","family":"diagonal","entries":[[0,1.0,0.0]],"dim":1}'
    )
    kernel = build_operator(spec)
    assert isinstance(kernel, LatticeKernel)
    assert kernel.eval((0,), (0,)) == 1
    assert kernel.eval((1,), (1,)) == 0


def test_unknown_field_is_rejected_by_name():
    with pytest.raises(SpecValidationError) as info:
        parse_spec(f"{FIXTURES}/bad/unknown_field.json")
    assert info.value.field == "bandwidth"


def test_block_dims_mismatch_names_the_block():
    with pytest.raises(SpecValidationError) as info:
        parse_spec(f"{FIXTURES}/bad/block_dim_mismatch.json")
    assert info.value.field == "block[2]"
    assert "block[2]" in str(info.value)


def test_missing_kind_is_rejected():
    with pytest.raises(SpecValidationError) as info:
        parse_spec(f"{FIXTURES}/bad/missing_kind.json")
    assert info.value.field == "kind"


def test_bad_entry_type_names_the_position():
    with pytest.raises(SpecValidationError) as info:
        parse_spec(f"{FIXTURES}/bad/bad_entry_type.json")
    assert info.value.field == "entries[1][0]"


def test_broken_syntax_reports_line_and_column():
    with pytest.raises(SpecParseError) as info:
        parse_spec(f"{FIXTURES}/bad/broken_syntax.json")
    assert info.value.line == 3
    assert info.value.column is not None


def test_non_finite_number_rejected():
    with pytest.raises(SpecValidationError):
        parse_spec_text(
            '{"kind":"lattice_kernel","family":"diagonal","dim":1,'
            '"entries":[[0,1e999,0.0]]}'
        )


def test_every_fixture_builds_the_right_type(tmp_path):
    expected = {
        "lattice_kernel": LatticeKernel,
        "toroidal_symbol": ToroidalSymbol,
        "block_symbol": BlockSymbol,
        "spectral_model": SpectralModel,
        "bundle_symbol": BundleSymbol,
    }
    import pathlib

    for path in sorted(pathlib.Path(FIXTURES).glob("*.json")):
        spec = parse_spec(path)
        assert isinstance(build_operator(spec), expected[spec.kind])


def random_raw_spec(rng):
    kind = rng.choice(["lattice_kernel", "toroidal_symbol", "block_symbol",
                       "spectral_model", "bundle_symbol"])
    if kind == "lattice_kernel":
        family = rng.choice(["diagonal", "rank_one", "banded", "table"])
        raw = {"kind": kind, "family": family, "dim": 1}
        if family == "diagonal":
            raw["entries"] = [[int(j), float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))]
                              for j in rng.integers(-4, 5, size=3)]
        elif family == "rank_one":
            raw["g"] = [[0, float(rng.uniform(-1, 1)), 0.0]]
            raw["h"] = [[1, float(rng.uniform(-1, 1)), 0.5]]
        elif family == "banded":
            raw["offsets"] = [[1, float(rng.uniform(-1, 1)), 0.0]]
            raw["support"] = int(rng.integers(1, 5))
        else:
            raw["entries"] = [[0, 1, float(rng.uniform(-1, 1)), 0.25]]
        return raw
    if kind == "toroidal_symbol":
        family = rng.choice(["power_decay", "sharpness", "modulated", "custom_table"])
        raw = {"kind": kind, "family": family, "dim": 1}
        if family == "power_decay":
            raw["order"] = float(rng.uniform(-4, -1.5))
            raw["amplitude"] = [float(rng.uniform(0.1, 1)), 0.0]
        elif family == "modulated":
            raw["modes"] = [[1, 0.5, 0.0], [-1, 0.5, 0.0]]
            raw["decay_order"] = -2.0
            raw["amplitude"] = [1.0, 0.0]
        elif family == "custom_table":
            raw["entries"] = [[0, 0, float(rng.uniform(-1, 1)), 0.0]]
            raw["order"] = -2.0
        return raw
    if kind == "block_symbol":
        side = int(rng.integers(1, 4))
        block = [[[float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))]
                  for _ in range(side)] for _ in range(side)]
        return {"kind": kind, "blocks": [block], "dims": [side]}
    if kind == "spectral_model":
        return {"kind": kind, "model": str(rng.choice(["circle", "sphere2"])),
                "J": int(rng.integers(1, 50)), "alpha": 2.0, "nu": 2.0}
    return {
        "kind": kind,
        "fiber_dim": 1,
        "dual": [["xi", 1]],
        "sigma": [[1, 1, "xi", [[[float(rng.uniform(-1, 1)), 0.0]]]]],
    }


def test_emit_parse_round_trip():
    rng = np.random.default_rng(81)
    for _ in range(40):
        raw = random_raw_spec(rng)
        spec = parse_spec_text(json.dumps(raw))
        again = parse_spec_text(emit_spec(spec))
        assert again == spec
        assert emit_spec(again) == emit_spec(spec)


def test_label_round_trips():
    spec = parse_spec_text(
        '{"kind":"lattice_kernel","family":"diagonal","dim":1,'
        '"entries":[],"label":"named"}'
    )
    assert spec.label == "named"
    assert parse_spec_text(emit_spec(spec)).label == "named"


def test_amplitude_accepts_bare_number():
    spec = parse_spec_text(
        '{"kind":"toroidal_symbol","family":"power_decay","dim":1,'
        '"order":-2.0,"amplitude":0.5}'
    )
    assert spec.params["amplitude"] == [0.5, 0.0]


def test_duplicate_dual_id_rejected():
    with pytest.raises(SpecValidationError) as info:
        parse_spec_text(
            '{"kind":"bundle_symbol","fiber_dim":1,'
            '"dual":[["xi",1],["xi",2]],"sigma":[]}'
        )
    assert info.value.field == "dual[1]"


def test_bundle_sigma_shape_mismatch_names_record():
    with pytest.raises(SpecValidationError) as info:
        parse_spec_text(
            '{"kind":"bundle_symbol","fiber_dim":1,"dual":[["xi",2]],'
            '"sigma":[[1,1,"xi",[[[1.0,0.0]]]]]}'
        )
    assert info.value.field == "sigma[0]"


@pytest.mark.parametrize("kind", [["lattice_kernel"], {"k": 1}, 3, None])
def test_kind_that_is_no_string_is_rejected_by_name(kind):
    with pytest.raises(SpecValidationError) as info:
        parse_spec_text(json.dumps({"kind": kind}))
    assert info.value.field == "kind"
    assert str(info.value).endswith(f"got {kind!r}")


def _number(rng, style):
    """A spec number: a float, an int, or either at random ("mixed")."""
    x = float(rng.integers(-8, 9)) / 4
    return int(x) if style == "int" or (style == "mixed" and rng.uniform() < 0.5) else x


def _pair(rng, style):
    if style == "mixed" and rng.uniform() < 0.25:
        return _number(rng, style)  # a bare number stands for [re, 0]
    return [_number(rng, style), _number(rng, style)]


def _records(rng, style, slots, n=5):
    return [[int(i) for i in rng.integers(-3, 4, size=slots)]
            + [_number(rng, style), _number(rng, style)] for _ in range(n)]


def _matrix(rng, style, side):
    return [[_pair(rng, style) for _ in range(side)] for _ in range(side)]


def specs_of_every_kind(rng, style) -> list:
    """One raw spec of every kind and family, with numbers in ``style``."""
    specs = [{"kind": "lattice_kernel", "family": "diagonal", "entries": _records(rng, style, 1)},
             {"kind": "lattice_kernel", "family": "rank_one", "g": _records(rng, style, 1),
              "h": _records(rng, style, 1)},
             {"kind": "lattice_kernel", "family": "banded", "offsets": _records(rng, style, 1),
              "support": 3},
             {"kind": "lattice_kernel", "family": "table", "entries": _records(rng, style, 2)}]
    for dim in (1, 2):
        specs += [{"kind": "toroidal_symbol", "family": "modulated", "dim": dim,
                   "modes": _records(rng, style, dim), "decay_order": -3.0,
                   "amplitude": _pair(rng, style)},
                  {"kind": "toroidal_symbol", "family": "custom_table", "dim": dim,
                   "entries": _records(rng, style, 2 * dim), "order": -2.0}]
    specs += [{"kind": "toroidal_symbol", "family": "power_decay", "order": -2.0,
               "amplitude": _pair(rng, style)},
              {"kind": "toroidal_symbol", "family": "sharpness"},
              {"kind": "block_symbol", "blocks": [_matrix(rng, style, side) for side in (2, 1, 3)]},
              {"kind": "spectral_model", "model": "table", "alpha": 2.0,
               "eigenvalues": [abs(_number(rng, style)) for _ in range(4)],
               "multiplicities": [int(d) for d in rng.integers(1, 4, size=4)]},
              {"kind": "spectral_model", "model": "circle", "J": 5, "alpha": 2.0},
              {"kind": "bundle_symbol", "fiber_dim": 2, "dual": [["a", 2], ["b", 1]],
               "sigma": [[1, 1, "a", _matrix(rng, style, 2)], [2, 1, "b", _matrix(rng, style, 1)],
                         [2, 2, "a", _matrix(rng, style, 2)]]}]
    return specs


def test_whole_list_check_accepts_only_what_the_walk_keeps():
    assert specfile._plain_records([[0, 1.0, 0.0], [-3, -0.5, 2.5]], 1)
    assert specfile._plain_records([], 2)
    assert specfile._plain_matrices([[[[1.0, 0.0], [0.5, -0.0]], [[0.0, 0.0], [2.0, 1.0]]],
                                     [[[1.0, 2.0]]]])
    for records in ([[0, 1, 0.0]], [[True, 1.0, 0.0]], [[0, 1.0, False]], [[0, 1.0]],
                    [[0, 1.0, 0.0, 0.0]], [[0, math.nan, 0.0]], [[0, 1.0, -math.inf]],
                    [[0.0, 1.0, 0.0]], [[0, "1.0", 0.0]], [(0, 1.0, 0.0)], {"0": [0, 1.0, 0.0]}):
        assert not specfile._plain_records(records, 1), records
    for matrix in ([], [[]], [[[1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]], [[1.0]],
                   [[[1.0, 0.0, 0.0]]], [[[1, 0.0]]], [[[1.0, math.nan]]], [[(1.0, 0.0)]]):
        assert not specfile._plain_matrices([[[[1.0, 0.0]]], matrix]), matrix


@pytest.mark.parametrize("style", ["float", "int", "mixed"])
def test_whole_list_check_gives_what_the_walk_gives(monkeypatch, style):
    rng = np.random.default_rng({"float": 1, "int": 2, "mixed": 3}[style])
    texts = [json.dumps(raw) for _ in range(4) for raw in specs_of_every_kind(rng, style)]
    specs = [parse_spec_text(text) for text in texts]
    for spec in specs:
        assert repr(parse_spec_text(emit_spec(spec))) == repr(spec)
    monkeypatch.setattr(specfile, "_exact", lambda values, tp: False)  # walk every list
    walked = [parse_spec_text(text) for text in texts]
    # repr tells an int from a float and -0.0 from 0.0
    assert [repr(spec) for spec in specs] == [repr(spec) for spec in walked]
