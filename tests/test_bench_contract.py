"""The benchmark tracer rebinds library names by module and attribute
(``bench/tracing.py``); a refactor that drops one of them breaks traced
runs, so every name it patches must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
