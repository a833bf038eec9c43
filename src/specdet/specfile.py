"""Operator spec files: one self-describing JSON format for all five kinds.

A spec file is a single JSON object with a ``kind`` field selecting the
representation (lattice_kernel, toroidal_symbol, block_symbol,
spectral_model, bundle_symbol) and kind-specific fields.  Complex numbers
are two-element arrays [re, im].  Unknown fields are rejected and every
validation error names the offending field, so a bad file fails at parse
time rather than mid-computation.

Entry lists and matrices are checked whole: one pass over the list asks
whether every record is a list of the right length holding exact ``int``
indices and exact, finite ``float`` values.  Such a list is already what
normalizing it would return, so it is kept as it is, and no field path
is built.  Any other list (int values to convert, bools, strings,
non-finite numbers, records of the wrong length) goes through the
per-item walk, which normalizes it or names the first bad item, so the
normalized values and every message are the walk's.  Four such checks
serve every kind: ``_plain_records`` the lattice and toroidal entry lists,
``_plain_matrices`` the block matrices and the matrices of bundle
``sigma`` records, ``_plain_floats`` spectral eigenvalues and ``_exact``
spectral multiplicities.  Bundle fiber indices and dual ids are read
record by record: a record's shape, ``str`` dual id and ``_as_int`` fiber
indices are checked with the rest of that record's checks.  Params keep the
lists; the builders turn each lattice or coefficient list into sorted int64
site arrays and complex128 values in one pass (``_sites``), and refuse a
site listed twice, naming the later record, after every other check.

The kind table ``_KINDS`` at the end of the module is the one list of
kinds: it maps each kind to its validator (spec object to normalized
params) and its builder (params and label to the domain object).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from .bundles import BundleSymbol, DualObject
from .errors import SpecParseError, SpecValidationError
from .invariant import BlockSymbol, SpectralModel, circle_model, sphere2_model, torus2_model
from .lattice import (
    LatticeKernel,
    _banded_sites,
    _diagonal_sites,
    _rank_one_sites,
    _sup_norms,
    _table_sites,
)
from .toroidal import (
    ToroidalSymbol,
    _listed_symbol,
    modulated_symbol,
    power_decay_symbol,
    sharpness_symbol,
)

__all__ = ["OperatorSpec", "parse_spec", "parse_spec_text", "emit_spec", "build_operator"]

@dataclass
class OperatorSpec:
    """Validated, normalized contents of a spec file."""

    kind: str
    params: dict = field(default_factory=dict)
    label: str | None = None


def _fail(message: str, fld: str | None = None):
    raise SpecValidationError(
        message if fld is None else f"{fld}: {message}", field=fld
    )


def _as_int(value, fld: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"expected an integer, got {value!r}", fld)
    return value


def _as_number(value, fld: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"expected a number, got {value!r}", fld)
    value = float(value)
    if not math.isfinite(value):
        _fail(f"expected a finite number, got {value!r}", fld)
    return value


def _at_least(value, fld: str, low: int) -> int:
    value = _as_int(value, fld)
    if value < low:
        _fail(f"{fld} must be >= {low}", fld)
    return value


def _positive(value, fld: str) -> float:
    value = _as_number(value, fld)
    if not value > 0:
        _fail(f"{fld} must be positive", fld)
    return value


def _as_pair(value, fld: str) -> list:
    """Normalize a complex field: plain number or [re, im]."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [_as_number(value, fld), 0.0]
    if isinstance(value, list) and len(value) == 2:
        return [_as_number(value[0], f"{fld}[0]"), _as_number(value[1], f"{fld}[1]")]
    _fail(f"expected a number or [re, im] pair, got {value!r}", fld)


def _exact(values, tp) -> bool:
    """Whether every item of ``values`` has type ``tp`` itself (so a bool
    is not an int)."""
    return set(map(type, values)) <= {tp}


def _plain_floats(values) -> bool:
    """Whether ``values`` are exact, finite floats: what _as_number returns
    unchanged.  A non-finite item makes the sum inf or nan; an overflowing
    sum of finite items only sends the list to the per-item walk."""
    return _exact(values, float) and math.isfinite(sum(values))


def _plain_records(value, index_slots: int) -> bool:
    """Whether ``value`` is a list of [idx..., re, im] records with exact
    int indices and plain float values, which _as_entry_list would return
    unchanged."""
    width = index_slots + 2
    if (type(value) is not list or not _exact(value, list)
            or not set(map(len, value)) <= {width}):
        return False
    flat = list(chain.from_iterable(value))
    if index_slots:
        if not all(_exact(flat[s::width], int) for s in range(index_slots)):
            return False
        flat = flat[index_slots::width] + flat[index_slots + 1::width]
    return _plain_floats(flat)


def _plain_matrices(value) -> bool:
    """Whether ``value`` is a list of matrices that _as_matrix would each
    return unchanged: nonempty lists of equally long, nonempty rows of plain
    [re, im] pairs."""
    if type(value) is not list or not _exact(value, list) or not all(value):
        return False
    rows = list(chain.from_iterable(value))
    if not _exact(rows, list) or not all(rows):
        return False
    widths = chain.from_iterable([len(matrix[0])] * len(matrix) for matrix in value)
    return (list(map(len, rows)) == list(widths)
            and _plain_records(list(chain.from_iterable(rows)), 0))


def _as_entry_list(value, fld: str, index_slots: int) -> list:
    """Normalize a list of [idx..., re, im] records."""
    if _plain_records(value, index_slots):
        return value
    if not isinstance(value, list):
        _fail(f"expected a list, got {value!r}", fld)
    out = []
    for n, rec in enumerate(value):
        here = f"{fld}[{n}]"
        if not isinstance(rec, list) or len(rec) != index_slots + 2:
            _fail(f"expected [{'index, ' * index_slots}re, im], got {rec!r}", here)
        idx = [_as_int(rec[s], f"{here}[{s}]") for s in range(index_slots)]
        re = _as_number(rec[index_slots], f"{here}[{index_slots}]")
        im = _as_number(rec[index_slots + 1], f"{here}[{index_slots + 1}]")
        out.append(idx + [re, im])
    return out


def _as_matrix(value, fld: str) -> list:
    """Normalize a matrix: list of rows of [re, im] pairs."""
    if not isinstance(value, list) or not value:
        _fail(f"expected a nonempty list of rows, got {value!r}", fld)
    rows = []
    width = None
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            _fail(f"expected a nonempty row, got {row!r}", f"{fld}[{i}]")
        if width is None:
            width = len(row)
        elif len(row) != width:
            _fail(f"row has {len(row)} entries, expected {width}", f"{fld}[{i}]")
        rows.append([_as_pair(z, f"{fld}[{i}][{j}]") for j, z in enumerate(row)])
    return rows


def _check_keys(obj: dict, allowed: set, context: str):
    for key in obj:
        if key not in allowed:
            _fail(f"unknown field in {context} (allowed: {sorted(allowed)})", key)


def _require(obj: dict, fld: str):
    if fld not in obj:
        _fail("required field is missing", fld)
    return obj[fld]


#: lattice family -> {entry list: index slots per dimension}; banded also takes support
_LATTICE_FAMILIES = {
    "diagonal": {"entries": 1},
    "rank_one": {"g": 1, "h": 1},
    "banded": {"offsets": 1},
    "table": {"entries": 2},
}


def _validate_lattice(obj: dict) -> dict:
    family = _require(obj, "family")
    if not isinstance(family, str) or family not in _LATTICE_FAMILIES:
        _fail(f"unknown family {family!r} (have {sorted(_LATTICE_FAMILIES)})", "family")
    scalars = {"support"} if family == "banded" else set()
    _check_keys(obj, {"kind", "label", "family", "dim", *_LATTICE_FAMILIES[family], *scalars},
                f"lattice_kernel family {family!r}")
    dim = _as_int(obj.get("dim", 1), "dim")
    if dim != 1:
        _fail("built-in lattice families are one-dimensional", "dim")
    params = {"family": family, "dim": dim}
    for fld, slots in _LATTICE_FAMILIES[family].items():  # in table order
        params[fld] = _as_entry_list(_require(obj, fld), fld, slots * dim)
    if scalars:
        params["support"] = _at_least(_require(obj, "support"), "support", 0)
    return params


def _validate_toroidal(obj: dict) -> dict:
    family = _require(obj, "family")
    families = {
        "power_decay": {"order", "amplitude"},
        "sharpness": set(),
        "modulated": {"modes", "decay_order", "amplitude"},
        "custom_table": {"entries", "order"},
    }
    if not isinstance(family, str) or family not in families:
        _fail(f"unknown family {family!r} (have {sorted(families)})", "family")
    _check_keys(obj, {"kind", "label", "family", "dim", "x_grid"} | families[family],
                f"toroidal_symbol family {family!r}")
    dim = _at_least(obj.get("dim", 1), "dim", 1)
    params = {"family": family, "dim": dim}
    if "x_grid" in obj:
        params["x_grid"] = _at_least(obj["x_grid"], "x_grid", 2)
    if family == "power_decay":
        params["order"] = _as_number(_require(obj, "order"), "order")
        params["amplitude"] = _as_pair(obj.get("amplitude", 1.0), "amplitude")
    elif family == "modulated":
        params["modes"] = _as_entry_list(_require(obj, "modes"), "modes", dim)
        params["decay_order"] = _as_number(_require(obj, "decay_order"), "decay_order")
        params["amplitude"] = _as_pair(obj.get("amplitude", 1.0), "amplitude")
    elif family == "custom_table":
        params["entries"] = _as_entry_list(_require(obj, "entries"), "entries", 2 * dim)
        params["order"] = _as_number(obj.get("order", 0.0), "order")
    return params


def _validate_block(obj: dict) -> dict:
    _check_keys(obj, {"kind", "label", "blocks", "dims"}, "block_symbol")
    raw_blocks = _require(obj, "blocks")
    if not isinstance(raw_blocks, list) or not raw_blocks:
        _fail("expected a nonempty list of matrices", "blocks")
    plain = _plain_matrices(raw_blocks)
    blocks = []
    for l, raw in enumerate(raw_blocks):
        matrix = raw if plain else _as_matrix(raw, f"block[{l}]")
        if len(matrix) != len(matrix[0]):
            _fail(f"matrix is {len(matrix)}x{len(matrix[0])}, must be square",
                  f"block[{l}]")
        blocks.append(matrix)
    params = {"blocks": blocks}
    if "dims" in obj:
        dims = obj["dims"]
        if not isinstance(dims, list):
            _fail(f"expected a list of sizes, got {dims!r}", "dims")
        if len(dims) != len(blocks):
            _fail(f"{len(dims)} sizes for {len(blocks)} blocks", "dims")
        for l, d in enumerate(dims):
            d = _as_int(d, f"dims[{l}]")
            if d != len(blocks[l]):
                _fail(f"dims[{l}]={d} does not match matrix side {len(blocks[l])}",
                      f"block[{l}]")
        params["dims"] = [int(d) for d in dims]
    return params


#: built-in spectral model -> its constructor (J, nu, label); "table" is the other model
_MODELS = {"circle": circle_model, "sphere2": sphere2_model, "torus2": torus2_model}


def _validate_spectral(obj: dict) -> dict:
    model = _require(obj, "model")
    if not isinstance(model, str) or model != "table" and model not in _MODELS:
        _fail(f"unknown model {model!r} (have {sorted([*_MODELS, 'table'])})", "model")
    _check_keys(obj, {"kind", "label", "model", "alpha", "nu", "manifold_dim"}
                | ({"eigenvalues", "multiplicities"} if model == "table" else {"J"}),
                f"spectral_model {model!r}")
    params = {"model": model, "alpha": _positive(_require(obj, "alpha"), "alpha"),
              "nu": _positive(obj.get("nu", 2.0), "nu")}
    if "manifold_dim" in obj:
        params["manifold_dim"] = _at_least(obj["manifold_dim"], "manifold_dim", 1)
    if model == "table":
        eig = _require(obj, "eigenvalues")
        mult = _require(obj, "multiplicities")
        if not isinstance(eig, list) or not eig:
            _fail("expected a nonempty list", "eigenvalues")
        if not isinstance(mult, list) or len(mult) != len(eig):
            _fail(f"expected {len(eig)} multiplicities", "multiplicities")
        values = eig if _plain_floats(eig) else [
            _as_number(v, f"eigenvalues[{j}]") for j, v in enumerate(eig)]
        for j, v in enumerate(values):
            if v < 0:
                _fail("eigenvalues must be nonnegative", f"eigenvalues[{j}]")
        counts = mult if _exact(mult, int) else [
            _as_int(d, f"multiplicities[{j}]") for j, d in enumerate(mult)]
        for j, d in enumerate(counts):
            if d < 1:
                _fail("multiplicities must be >= 1", f"multiplicities[{j}]")
        params["eigenvalues"] = values
        params["multiplicities"] = counts
    else:
        params["J"] = _at_least(_require(obj, "J"), "J", 0)
    return params


def _validate_bundle(obj: dict) -> dict:
    _check_keys(obj, {"kind", "label", "fiber_dim", "dual", "sigma"}, "bundle_symbol")
    fiber_dim = _at_least(_require(obj, "fiber_dim"), "fiber_dim", 1)
    raw_dual = _require(obj, "dual")
    if not isinstance(raw_dual, list) or not raw_dual:
        _fail("expected a nonempty list of [id, dim] pairs", "dual")
    dims = {}
    for n, rec in enumerate(raw_dual):
        here = f"dual[{n}]"
        if not isinstance(rec, list) or len(rec) != 2 or not isinstance(rec[0], str):
            _fail(f"expected [id, dim], got {rec!r}", here)
        d = _as_int(rec[1], f"{here}[1]")
        if d < 1:
            _fail("block dimension must be >= 1", f"{here}[1]")
        if rec[0] in dims:
            _fail(f"duplicate dual id {rec[0]!r}", here)
        dims[rec[0]] = d
    raw_sigma = _require(obj, "sigma")
    if not isinstance(raw_sigma, list):
        _fail(f"expected a list of [i, r, xi, matrix] records, got {raw_sigma!r}",
              "sigma")
    plain = (_exact(raw_sigma, list) and set(map(len, raw_sigma)) <= {4}
             and _plain_matrices([rec[3] for rec in raw_sigma]))
    sigma = []
    seen_keys = set()
    for n, rec in enumerate(raw_sigma):
        if not isinstance(rec, list) or len(rec) != 4 or not isinstance(rec[2], str):
            _fail(f"expected [i, r, xi, matrix], got {rec!r}", f"sigma[{n}]")
        i = _as_int(rec[0], f"sigma[{n}][0]")
        r = _as_int(rec[1], f"sigma[{n}][1]")
        xi = rec[2]
        if not (1 <= i <= fiber_dim and 1 <= r <= fiber_dim):
            _fail(f"fiber indices ({i}, {r}) outside 1..{fiber_dim}", f"sigma[{n}]")
        if xi not in dims:
            _fail(f"unknown dual id {xi!r}", f"sigma[{n}]")
        matrix = rec[3] if plain else _as_matrix(rec[3], f"sigma[{n}][3]")
        if len(matrix) != dims[xi] or len(matrix[0]) != dims[xi]:
            _fail(f"matrix is {len(matrix)}x{len(matrix[0])}, expected "
                  f"{dims[xi]}x{dims[xi]} for block {xi!r}", f"sigma[{n}]")
        if (i, r, xi) in seen_keys:
            _fail(f"duplicate sigma entry for ({i}, {r}, {xi!r})", f"sigma[{n}]")
        seen_keys.add((i, r, xi))
        sigma.append([i, r, xi, matrix])
    return {"fiber_dim": fiber_dim, "dual": [[i, d] for i, d in dims.items()],
            "sigma": sigma}


def parse_spec_text(text: str) -> OperatorSpec:
    """Parse and validate a spec from JSON text."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecParseError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno, column=exc.colno,
        ) from exc
    if not isinstance(obj, dict):
        _fail("spec file must hold a JSON object", "kind")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        _fail(f"expected one of {list(_KINDS)}, got {kind!r}", "kind")
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        _fail(f"expected a string, got {label!r}", "label")
    params = _KINDS[kind][0](obj)
    return OperatorSpec(kind=kind, params=params, label=label)


def parse_spec(path) -> OperatorSpec:
    """Parse and validate a spec file from disk: a str or path-like ``path``."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    return parse_spec_text(text)


def emit_spec(spec: OperatorSpec) -> str:
    """Serialize a spec back to canonical JSON (reparses to an equal spec)."""
    obj = {"kind": spec.kind, **spec.params}
    if spec.label is not None:
        obj["label"] = spec.label
    return json.dumps(obj, sort_keys=True)


def build_operator(spec: OperatorSpec):
    """Instantiate the domain object a validated spec describes."""
    return _KINDS[spec.kind][1](spec.params, spec.label or "")


def _arrays(matrices) -> list:
    """Complex128 arrays of validated matrices (equal rows of [re, im]
    pairs), views of one flat float64 buffer."""
    flat = np.array(list(chain.from_iterable(chain.from_iterable(chain.from_iterable(
        matrices)))), dtype=np.float64).view(np.complex128)
    ends = list(accumulate([len(m) * len(m[0]) for m in matrices], initial=0))
    return [flat[a:b].reshape(len(m), -1) for m, a, b in zip(matrices, ends, ends[1:])]


def _build_block(p: dict, label: str) -> BlockSymbol:
    return BlockSymbol(tuple(_arrays(p["blocks"])), label=label)


def _build_bundle(p: dict, label: str) -> BundleSymbol:
    dual = DualObject(tuple((i, d) for i, d in p["dual"]))
    entries = dict(zip([(i, r, xi) for i, r, xi, _ in p["sigma"]],
                       _arrays([rec[3] for rec in p["sigma"]])))
    return BundleSymbol.from_entries(p["fiber_dim"], dual, entries, label=label)


def _refuse_repeat(records: list, slots: int, fld: str):
    """Refuse the first record whose site an earlier record lists."""
    first = {}
    for n, rec in enumerate(records):
        site = tuple(rec[:slots])
        if site in first:
            _fail(f"site {site} is listed twice (first at {fld}[{first[site]}])", f"{fld}[{n}]")
        first[site] = n


def _sites(records: list, slots: int, fld: str) -> tuple:
    """Site arrays (lattice._site_arrays) of validated [idx..., re, im] records,
    from one pass over them flattened; a site listed twice is refused."""
    flat = np.fromiter(chain.from_iterable(records), dtype=object,
                       count=len(records) * (slots + 2)).reshape(-1, slots + 2)
    sites = flat[:, :slots].astype(np.int64)
    order = np.lexsort(sites.T[::-1])
    sites = sites[order]
    if (sites[1:] == sites[:-1]).all(axis=1).any():
        _refuse_repeat(records, slots, fld)
    values = flat[:, slots:].astype(np.float64).view(np.complex128)[order, 0]
    return sites, _sup_norms(sites), values


def _build_lattice(p: dict, label: str) -> LatticeKernel:
    family, dim = p["family"], p["dim"]
    sites = [_sites(p[f], slots * dim, f) for f, slots in _LATTICE_FAMILIES[family].items()]
    label = label or family.replace("_", "-")
    if family == "rank_one":
        return _rank_one_sites(sites, dim, label)
    if family == "banded":
        return _banded_sites(*sites[0], p["support"], dim, label)
    build = _diagonal_sites if family == "diagonal" else _table_sites
    return build(*sites[0], dim, label)


def _build_toroidal(p: dict, label: str) -> ToroidalSymbol:
    family = p["family"]
    dim = p["dim"]
    if family == "power_decay":
        sym = power_decay_symbol(p["order"], dim=dim,
                                 amplitude=complex(*p["amplitude"]),
                                 label=label)
    elif family == "sharpness":
        sym = sharpness_symbol(dim=dim, label=label)
    elif family == "modulated":
        # Python ints, in listed order: modes may pass int64, and samples add them in order
        modes = {tuple(rec[:dim]): complex(rec[dim], rec[dim + 1]) for rec in p["modes"]}
        sym = modulated_symbol(modes, p["decay_order"], dim=dim,
                               amplitude=complex(*p["amplitude"]), label=label)
        if len(modes) < len(p["modes"]):
            _refuse_repeat(p["modes"], dim, "modes")
    else:
        sites, _, values = _sites(p["entries"], 2 * dim, "entries")
        sym = _listed_symbol(sites, values, dim, p["order"], label)
    if "x_grid" in p:
        sym.x_grid = p["x_grid"]
    return sym


def _build_spectral(p: dict, label: str) -> SpectralModel:
    model = p["model"]
    if model in _MODELS:
        return _MODELS[model](p["J"], nu=p["nu"], label=label or model)
    return SpectralModel(p["eigenvalues"], p["multiplicities"], p["nu"],
                         label=label or "table")


#: kind -> (validate spec object into params, build operator from params and label)
_KINDS = {
    "lattice_kernel": (_validate_lattice, _build_lattice),
    "toroidal_symbol": (_validate_toroidal, _build_toroidal),
    "block_symbol": (_validate_block, _build_block),
    "spectral_model": (_validate_spectral, _build_spectral),
    "bundle_symbol": (_validate_bundle, _build_bundle),
}
