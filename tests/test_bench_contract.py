"""The benchmark tracer rebinds library names by module and attribute
(``bench/tracing.py``); a refactor that drops one of them breaks traced
runs, so every name it patches must still exist."""

import importlib
import importlib.util
import io
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patched_names():
    t = _tracing()
    names = [(m, attr) for m, attr, _ in t.SPANS]
    names += [(m, attr) for m, attr, _ in t.SOURCES]
    names += [(m, "plemelj_det") for m in t.PLEMELJ_CALLERS]
    names += [(m, "mat_mul") for m in t.MAT_MUL_CALLERS]
    names.append(("cli", "build_operator"))
    return names


@pytest.mark.parametrize("module,attr", _patched_names())
def test_traced_name_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"specdet.{module}"), attr))


@pytest.mark.parametrize("fixture", ["banded_shift.json", "toroidal_modulated.json"])
def test_lattice_det_looks_up_the_traced_lattice_layers(monkeypatch, fixture):
    # the tracer times lattice.norm_s and lattice.source_s by rebinding these
    # two names in specdet.lattice; a direct call would leave them reading 0
    from specdet.cli import run_command

    lattice = importlib.import_module("specdet.lattice")
    called = []
    for name in ("nuclear_norm_estimate", "truncation_trace_source"):
        fn = getattr(lattice, name)
        monkeypatch.setattr(lattice, name,
                            lambda *a, _fn=fn, _name=name, **kw: called.append(_name) or _fn(*a, **kw))
    argv = ["det", "--input", str(ROOT / "fixtures" / fixture), "--mode", "series", "--cutoff", "5"]
    assert run_command(argv, io.StringIO(), io.StringIO()) == 0
    assert called == ["nuclear_norm_estimate", "truncation_trace_source"]


#: one fixture per spec kind, and the names bound in specdet.cli that its
#: det, trace, radius and compare runs (and norm-profile, where the kind has
#: one) must call, beside parse_spec and radius_estimate
KIND_CALLS = {
    "lattice_kernel": ("rank_one.json", {
        "lattice_determinant", "lattice_trace", "truncation_trace_source",
        "assemble_truncation", "direct_determinant", "mat_trace", "poincare_norm",
        "growth_verdict"}),
    "toroidal_symbol": ("toroidal_modulated.json", {
        "toroidal_determinant", "toroidal_matrix", "lattice_trace",
        "truncation_trace_source", "assemble_truncation", "direct_determinant",
        "mat_trace", "norm_growth_profile"}),
    "block_symbol": ("block_symbol.json", {
        "invariant_determinant", "block_determinant_product", "block_trace",
        "mat_trace", "block_trace_source"}),
    "spectral_model": ("spectral_sphere.json", {
        "manifold_determinant", "spectral_determinant_product", "spectral_trace_source"}),
    "bundle_symbol": ("bundle_small.json", {
        "bundle_determinant", "bundle_determinant_product", "bundle_trace",
        "flatten_symbol", "mat_trace", "bundle_trace_source"}),
}


def test_every_kind_has_a_traced_fixture():
    from specdet import cli, specfile

    assert set(specfile._KINDS) == set(cli._KINDS) == set(KIND_CALLS)


@pytest.mark.parametrize("kind", sorted(KIND_CALLS))
def test_kind_table_calls_through_the_traced_names(monkeypatch, kind):
    # the CLI kind table must look these names up in specdet.cli on each
    # call: a table holding the function objects would bypass the tracer's
    # rebinding, and the per-layer spans would read 0
    from specdet.cli import run_command

    t = _tracing()
    cli = importlib.import_module("specdet.cli")
    traced = {attr for m, attr, _ in t.SPANS + t.SOURCES if m == "cli"}
    fixture, expected = KIND_CALLS[kind]
    expected = expected | {"parse_spec", "radius_estimate"}
    assert expected <= traced
    called = set()
    for name in traced:
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name,
                            lambda *a, _fn=fn, _name=name, **kw: called.add(_name) or _fn(*a, **kw))
    commands = ["det", "trace", "radius", "compare"]
    if kind in ("lattice_kernel", "toroidal_symbol"):
        commands.append("norm-profile")
    for command in commands:
        argv = [command, "--input", str(ROOT / "fixtures" / fixture), "--cutoff", "4"]
        assert run_command(argv, io.StringIO(), io.StringIO()) == 0
    assert called == expected
