import ast
from pathlib import Path

import numpy as np
import pytest

from specdet import (
    CMatrix,
    TruncationIndexMap,
    assemble_truncation,
    banded_kernel,
    diagonal_kernel,
    direct_determinant,
    lattice_trace,
    literal_cycle_sum,
    mat_mul,
    mat_power_trace,
    table_kernel,
)
from specdet.errors import FeasibilityError, ParameterError

from support import charpoly_eig_det, rand_cmatrix, rand_complex


def test_index_map_is_a_stable_lexicographic_bijection():
    imap = TruncationIndexMap(2, 1)
    assert len(imap) == 9
    assert imap.points[0] == (-1, -1)
    assert imap.points[-1] == (1, 1)
    assert imap.points == sorted(imap.points)
    for pos, pt in enumerate(imap.points):
        assert imap.position(pt) == pos
        assert imap.index(pos) == pt


def test_assemble_identity_kernel():
    k = diagonal_kernel({j: 1.0 for j in range(-1, 2)})
    assert assemble_truncation(k, 1).entries == tuple(np.eye(3, dtype=np.complex128).ravel())


def test_assemble_shift_kernel_is_subdiagonal():
    # K(i, j) = delta_{i, j+1}: the image of e_j is e_{j+1}
    k = table_kernel({(j + 1, j): 1.0 for j in range(-1, 1)})
    m = assemble_truncation(k, 1)
    expected = CMatrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert m.entries == expected.entries


def test_assemble_matches_pointwise_evaluation():
    rng = np.random.default_rng(31)
    entries = {(int(rng.integers(-2, 3)), int(rng.integers(-2, 3))): rand_complex(rng)
               for _ in range(12)}
    k = table_kernel(entries)
    m = assemble_truncation(k, 2)
    imap = TruncationIndexMap(1, 2)
    for r, i in enumerate(imap.points):
        for c, j in enumerate(imap.points):
            assert m.at(r, c) == k.eval(i, j)


def test_assembly_guard_reports_count():
    k = diagonal_kernel({0: 1.0})
    with pytest.raises(FeasibilityError) as info:
        assemble_truncation(k, 10001)
    assert info.value.count == 2 * 10001 + 1


def test_lu_guard_refuses_before_the_elimination_and_reports_count(monkeypatch):
    from specdet import oracle

    # side 289, the widest LU the tests and the fixture sweep run, answers;
    # side 465 is the widest the guard admits: (n^3 - n) / 3 updates
    assert direct_determinant(CMatrix.zeros(289, 289), 0.5) == 1
    assert (465 ** 3 - 465) // 3 <= oracle.LU_UPDATE_GUARD < (466 ** 3 - 466) // 3
    monkeypatch.setattr(oracle, "lu_determinant", lambda m: pytest.fail("LU started"))
    with pytest.raises(FeasibilityError, match="side 466 needs 33731410 updates") as info:
        direct_determinant(CMatrix.zeros(466, 466), 0.5)
    assert info.value.count == 33731410


def test_direct_determinant_of_zero_matrix():
    assert direct_determinant(CMatrix.zeros(3, 3), 0.7) == 1


def test_direct_determinant_diagonal():
    assert direct_determinant(CMatrix.from_array(np.diag([1.0 + 0j, 2.0])), 1.0) == 6


def test_direct_determinant_matches_eigenvalue_product():
    rng = np.random.default_rng(32)
    for _ in range(10):
        m = rand_cmatrix(rng, 6, scale=0.8)
        expected = charpoly_eig_det(m, 0.3)
        got = direct_determinant(m, 0.3)
        assert abs(got - expected) <= 1e-8 * max(1.0, abs(expected))


def test_literal_cycle_sum_order_one_is_trace():
    rng = np.random.default_rng(33)
    entries = {(int(rng.integers(-2, 3)), int(rng.integers(-2, 3))): rand_complex(rng)
               for _ in range(10)}
    k = table_kernel(entries)
    assert abs(literal_cycle_sum(k, 1, 2) - lattice_trace(k, 2)) < 1e-14


def test_literal_cycle_sum_diagonal_kernel():
    mus = {j: 0.2 * j - 0.1j for j in range(-2, 3)}
    k = diagonal_kernel(mus)
    expected = sum(v ** 3 for v in mus.values())
    assert abs(literal_cycle_sum(k, 3, 2) - expected) < 1e-14


def test_literal_cycle_sum_matches_matrix_powers():
    rng = np.random.default_rng(34)
    entries = {(int(rng.integers(-2, 3)), int(rng.integers(-2, 3))): rand_complex(rng, 0.6)
               for _ in range(14)}
    k = table_kernel(entries)
    truncation = assemble_truncation(k, 2)
    for m in (1, 2, 3):
        literal = literal_cycle_sum(k, m, 2)
        power = mat_power_trace(truncation, m)
        assert abs(literal - power) <= 1e-12 * max(1.0, abs(power))


def test_literal_cycle_sum_two_dimensional():
    rng = np.random.default_rng(36)
    entries = {}
    for _ in range(8):
        j = (int(rng.integers(-1, 2)), int(rng.integers(-1, 2)))
        m = (int(rng.integers(-1, 2)), int(rng.integers(-1, 2)))
        entries[(j, m)] = rand_complex(rng, 0.5)
    k = table_kernel(entries, dim=2)
    truncation = assemble_truncation(k, 1)
    for order in (1, 2, 3):
        literal = literal_cycle_sum(k, order, 1)
        power = mat_power_trace(truncation, order)
        assert abs(literal - power) <= 1e-12 * max(1.0, abs(power))


def test_literal_cycle_sum_guard_reports_count():
    k = diagonal_kernel({0: 1.0})
    with pytest.raises(FeasibilityError) as info:
        literal_cycle_sum(k, 9, 3)
    assert info.value.count == 7 ** 9


def test_literal_cycle_sum_rejects_bad_order():
    with pytest.raises(ParameterError):
        literal_cycle_sum(diagonal_kernel({0: 1.0}), 0, 2)


def test_det_of_ab_equals_det_of_ba():
    rng = np.random.default_rng(35)
    for _ in range(10):
        a = rand_cmatrix(rng, 4, 6, scale=0.7)
        b = rand_cmatrix(rng, 6, 4, scale=0.7)
        ab = mat_mul(a, b)
        ba = mat_mul(b, a)
        lhs = direct_determinant(ab, 1.0)
        rhs = direct_determinant(ba, 1.0)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_direct_determinant_is_multiplicative_over_block_kernels():
    # kernels supported on disjoint diagonal boxes multiply
    k_left = table_kernel({(j, m): 0.3 for j in (-2, -1) for m in (-2, -1)})
    k_right = table_kernel({(1, 1): 0.5, (2, 2): -0.25})
    combined = table_kernel({
        **{(j, m): 0.3 for j in (-2, -1) for m in (-2, -1)},
        **{(1, 1): 0.5, (2, 2): -0.25},
    })
    lam = 0.8
    det_combined = direct_determinant(assemble_truncation(combined, 2), lam)
    det_product = (direct_determinant(assemble_truncation(k_left, 2), lam)
                   * direct_determinant(assemble_truncation(k_right, 2), lam))
    assert abs(det_combined - det_product) <= 1e-12 * max(1.0, abs(det_product))


def test_shift_kernel_determinant_is_one():
    # nilpotent truncation: every cycle trace vanishes
    k = banded_kernel({1: 0.5}, support=4)
    det = direct_determinant(assemble_truncation(k, 4), 2.0)
    assert abs(det - 1.0) < 1e-14


SRC = Path(__file__).resolve().parent.parent / "src" / "specdet"
#: the modules of the series routes, which the oracle is to check independently
FAST_PATHS = ("lattice", "toroidal", "invariant", "bundles", "plemelj", "specfile")


def _imports(module: str) -> set:
    """``(module, name)`` of every import in ``specdet/<module>.py``, at any
    depth: ``from .m import n`` and ``from specdet.m import n`` give
    ``("m", "n")``, ``from . import m`` and ``import specdet.m`` give ``("m", None)``."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if not node.level:
                base = base.removeprefix("specdet").lstrip(".")
            for alias in node.names:
                found.add((base, alias.name) if base else (alias.name, None))
        elif isinstance(node, ast.Import):
            found.update((alias.name.removeprefix("specdet."), None) for alias in node.names)
    return found


@pytest.mark.parametrize("module", FAST_PATHS)
def test_fast_paths_import_nothing_from_the_oracle(module):
    assert not {name for name in _imports(module) if name[0] == "oracle"}


def test_the_oracle_takes_only_two_names_from_the_fast_paths():
    taken = {name for name in _imports("oracle") if name[0] in FAST_PATHS}
    assert taken == {("lattice", "DENSE_SIDE_LIMIT"), ("bundles", "flatten_symbol")}
