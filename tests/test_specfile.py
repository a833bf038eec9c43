import io
import itertools
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
    banded_kernel,
    build_operator,
    diagonal_kernel,
    emit_spec,
    modulated_symbol,
    parse_spec,
    parse_spec_text,
    rank_one_kernel,
    table_kernel,
    table_symbol,
    toroidal_matrix,
)
from specdet.cli import run_command
from specdet.errors import SpecParseError, SpecValidationError

from support import bits, support_entries

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


def test_parse_spec_takes_a_str_or_a_path():
    # the same spec from either, and a missing file keeps its io error line
    import pathlib

    path = f"{FIXTURES}/toroidal_power_decay.json"
    assert parse_spec(path) == parse_spec(pathlib.Path(path))
    missing = f"{FIXTURES}/missing.json"
    messages = []
    for arg in (missing, pathlib.Path(missing)):
        with pytest.raises(FileNotFoundError) as info:
            parse_spec(arg)
        messages.append(str(info.value))
    assert messages == [f"[Errno 2] No such file or directory: '{missing}'"] * 2
    for output, line in (("json", '{"error": "io", "message": "%s"}\n' % messages[0]),
                         ("text", f"specdet: io error: {messages[0]}\n")):
        out, err = io.StringIO(), io.StringIO()
        code = run_command(["det", "--input", missing, "--output", output], out, err)
        assert (code, out.getvalue(), err.getvalue()) == (2, "", line)


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


LOWEST, HIGHEST = -(1 << 63), (1 << 63) - 1


def _spec_and_dict_builds(obj: dict, dim: int):
    """The operator a spec's builder makes of ``obj`` (validated when it is
    a valid spec; lattice specs hold one dimension, so 2-D lattice params go
    to the builder as they are) and the one its family's dict constructor
    makes of the same records."""
    def table(records, slots):
        split = (lambda idx: tuple(idx)) if slots == dim else \
            (lambda idx: (tuple(idx[:dim]), tuple(idx[dim:])))
        return {split(rec[:slots]): complex(rec[slots], rec[slots + 1]) for rec in records}

    family = obj["family"]
    if obj["kind"] == "lattice_kernel":
        from_spec = (build_operator(parse_spec_text(json.dumps(obj))) if dim == 1
                     else specfile._build_lattice({**obj, "dim": dim}, ""))
        if family == "diagonal":
            return from_spec, diagonal_kernel(table(obj["entries"], dim), dim=dim)
        if family == "rank_one":
            return from_spec, rank_one_kernel(table(obj["g"], dim), table(obj["h"], dim), dim=dim)
        if family == "banded":
            return from_spec, banded_kernel(table(obj["offsets"], dim), obj["support"], dim=dim)
        return from_spec, table_kernel(table(obj["entries"], 2 * dim), dim=dim)
    from_spec = build_operator(parse_spec_text(json.dumps(obj)))
    if family == "modulated":
        return from_spec, modulated_symbol(table(obj["modes"], dim), obj["decay_order"],
                                           dim=dim, amplitude=complex(*obj["amplitude"]))
    return from_spec, table_symbol(table(obj["entries"], 2 * dim), dim=dim, order=obj["order"])


def _far_records(rng, dim: int, slots: int, count: int, reach: int = 3) -> list:
    """``count`` records of distinct random sites near the origin, in a random
    order, then sites at the ends of the int64 range."""
    sites = {tuple(int(v) for v in rng.integers(-reach, reach + 1, size=slots))
             for _ in range(4 * count)}
    near = [list(site) + [float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))]
            for site in sorted(sites, key=lambda _: rng.uniform())[:count]]
    far = dict.fromkeys([(LOWEST,) * slots, (HIGHEST,) + (0,) * (slots - 1),
                         (0,) * (slots - 1) + (LOWEST,)])
    return near + [list(site) + [0.5, -0.25] for site in far]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", ["diagonal", "rank_one", "banded", "table",
                                    "custom_table", "modulated"])
def test_spec_and_dict_constructors_build_the_same_operator(family, dim):
    rng = np.random.default_rng(7 * dim + len(family))
    if family in ("diagonal", "table"):
        obj = {"kind": "lattice_kernel", "family": family,
               "entries": _far_records(rng, dim, dim if family == "diagonal" else 2 * dim, 12)}
    elif family == "rank_one":
        obj = {"kind": "lattice_kernel", "family": family,
               "g": _far_records(rng, dim, dim, 6), "h": _far_records(rng, dim, dim, 6)}
    elif family == "banded":
        obj = {"kind": "lattice_kernel", "family": family, "support": 2,
               "offsets": _far_records(rng, dim, dim, 5, reach=1)}
    elif family == "custom_table":
        obj = {"kind": "toroidal_symbol", "family": family, "dim": dim, "order": -2.0,
               "entries": _far_records(rng, dim, 2 * dim, 12)}
    else:  # modes within reach of a sampled grid, in a random order
        obj = {"kind": "toroidal_symbol", "family": family, "dim": dim, "decay_order": -2.5,
               "amplitude": [0.75, 0.25], "modes": _far_records(rng, dim, dim, 4)[:4]}
    from_spec, from_dict = _spec_and_dict_builds(obj, dim)
    cutoff = 2
    if obj["kind"] == "toroidal_symbol":
        assert from_spec.x_independent is from_dict.x_independent
        if family == "custom_table":
            assert [a.tobytes() for a in from_spec.coeffs] == [a.tobytes() for a in from_dict.coeffs]
        box = list(itertools.product(range(-cutoff, cutoff + 1), repeat=dim))
        for x, k in itertools.product([(0.0,) * dim, (0.375,) * dim, (0.8125, 0.25)[:dim]], box):
            assert bits(from_spec.eval(x, k)) == bits(from_dict.eval(x, k))
        from_spec, from_dict = toroidal_matrix(from_spec, cutoff), toroidal_matrix(from_dict, cutoff)
    assert from_spec.band_radius == from_dict.band_radius
    for r in (1, cutoff, cutoff + 1):
        assert ([a.tobytes() for a in support_entries(from_spec, r)]
                == [a.tobytes() for a in support_entries(from_dict, r)])
    box = list(itertools.product(range(-cutoff - 1, cutoff + 2), repeat=dim))
    for j, m in itertools.product(box, box):
        assert bits(from_spec.eval(j, m)) == bits(from_dict.eval(j, m))


#: a spec per list of sites, its list with a site listed twice, and the
#: message naming the later record
REPEATS = [
    ({"kind": "lattice_kernel", "family": "diagonal"},
     "entries", [[0, 0.5, 0.0], [1, 0.2, 0.0], [0, 0.7, 0.0]],
     "entries[2]: site (0,) is listed twice (first at entries[0])"),
    ({"kind": "lattice_kernel", "family": "rank_one", "h": [[0, 1.0, 0.0]]},
     "g", [[3, 0.5, 0.0], [-1, 0.2, 0.0], [-1, 0.1, 0.1], [3, 0.5, 0.0]],
     "g[2]: site (-1,) is listed twice (first at g[1])"),
    ({"kind": "lattice_kernel", "family": "rank_one", "g": [[0, 1.0, 0.0]]},
     "h", [[LOWEST, 0.5, 0.0], [2, 0.2, 0.0], [LOWEST, 0.5, 0.0]],
     f"h[2]: site ({LOWEST},) is listed twice (first at h[0])"),
    ({"kind": "lattice_kernel", "family": "banded", "support": 4},
     "offsets", [[-1, 0.2, 0.0], [0, 0.1, 0.0], [1, 0.2, 0.0], [0, 0.1, 0.0]],
     "offsets[3]: site (0,) is listed twice (first at offsets[1])"),
    ({"kind": "lattice_kernel", "family": "table"},
     "entries", [[0, 1, 0.5, 0.0], [1, 0, 0.2, 0.0], [1, 0, 0.2, 0.0], [0, 1, 0.5, 0.0]],
     "entries[2]: site (1, 0) is listed twice (first at entries[1])"),
    ({"kind": "toroidal_symbol", "family": "custom_table"},
     "entries", [[0, 0, 0.5, 0.0], [1, 1, 0.2, 0.1], [-1, 0, 0.0, 0.2], [0, 0, 0.7, 0.0]],
     "entries[3]: site (0, 0) is listed twice (first at entries[0])"),
    ({"kind": "toroidal_symbol", "family": "custom_table", "dim": 2},
     "entries", [[0, 0, 1, 0, 0.5, 0.0], [0, 0, 0, 1, 0.5, 0.0], [0, 0, 1, 0, 0.5, 0.0]],
     "entries[2]: site (0, 0, 1, 0) is listed twice (first at entries[0])"),
    ({"kind": "toroidal_symbol", "family": "modulated", "decay_order": -2.0},
     "modes", [[1, 0.25, 0.0], [-1, 0.25, 0.0], [1, 0.25, 0.0]],
     "modes[2]: site (1,) is listed twice (first at modes[0])"),
    ({"kind": "toroidal_symbol", "family": "modulated", "decay_order": -3.0, "dim": 2},
     "modes", [[1, 0, 0.25, 0.0], [0, 1, 0.25, 0.0], [0, 1, 0.5, 0.0]],
     "modes[2]: site (0, 1) is listed twice (first at modes[1])"),
]


@pytest.mark.parametrize("base, fld, records, message", REPEATS,
                         ids=[f"{b['family']}-{b.get('dim', 1)}d-{f}" for b, f, _, _ in REPEATS])
def test_a_site_listed_twice_is_refused(tmp_path, base, fld, records, message):
    spec = parse_spec_text(json.dumps({**base, fld: records}))  # each record is valid
    with pytest.raises(SpecValidationError) as info:
        build_operator(spec)
    assert (info.value.field, str(info.value)) == (message.split(":")[0], message)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**base, fld: records}))
    out, err = io.StringIO(), io.StringIO()
    assert run_command(["det", "--input", str(path), "--output", "json"], out, err) == 2
    assert out.getvalue() == ""
    assert json.loads(err.getvalue()) == {"error": "validation", "field": message.split(":")[0],
                                          "message": message}
    # the same sites once each build
    firsts = {json.dumps(rec[:-2]): rec for rec in reversed(records)}
    build_operator(parse_spec_text(json.dumps({**base, fld: list(firsts.values())[::-1]})))


@pytest.mark.parametrize("base, fld, records, message", REPEATS[::4] + REPEATS[-2:-1])
def test_a_repeated_site_is_named_after_the_existing_checks(base, fld, records, message):
    # a 400-digit index beside the repeat fails as before: as an int64 (a
    # site list) or as a float (a mode) too large to convert
    records = records + [[10 ** 399] + records[0][1:]]
    expected = ("int too large to convert to float" if fld == "modes"
                else "Python int too large to convert to C long")
    with pytest.raises(OverflowError, match=expected):
        build_operator(parse_spec_text(json.dumps({**base, fld: records})))


def test_repeated_eigenvalues_of_a_spectral_table_are_kept():
    spec = parse_spec_text(json.dumps({"kind": "spectral_model", "model": "table", "alpha": 2.0,
                                       "eigenvalues": [0.0, 1.0, 1.0, 4.0],
                                       "multiplicities": [1, 2, 2, 2]}))
    assert build_operator(spec).eigenvalues.tolist() == [0.0, 1.0, 1.0, 4.0]
