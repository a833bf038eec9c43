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
