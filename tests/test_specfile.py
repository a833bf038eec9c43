import json

import numpy as np
import pytest

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
