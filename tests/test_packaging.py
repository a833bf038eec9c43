"""``pip install .[test]`` must be enough to collect and run the suite:
every third-party module a test imports is declared in ``pyproject.toml``."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"


def _imported_modules(path: Path) -> set:
    """Top-level names of the absolute imports in ``path``, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def _declared() -> set:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
            for r in requirements}


def test_every_third_party_module_the_tests_import_is_declared():
    local = {"specdet"} | {p.stem for p in TESTS.glob("*.py")}
    imported = set().union(*(_imported_modules(p) for p in TESTS.glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - local
    assert {"numpy", "pytest", "hypothesis"} <= third_party
    assert third_party - _declared() == set()
