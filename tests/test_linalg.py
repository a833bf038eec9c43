import dataclasses

import numpy as np
import pytest

from specdet import CMatrix, lu_determinant, mat_mul, mat_power_trace, mat_trace
from specdet.errors import ParameterError, ShapeError

from support import cofactor_determinant, naive_matmul, naive_power_trace, rand_cmatrix


def test_identity_multiplication():
    rng = np.random.default_rng(1)
    m = rand_cmatrix(rng, 2)
    identity = CMatrix.from_array(np.eye(2, dtype=np.complex128))
    assert mat_mul(identity, m).entries == m.entries
    assert mat_mul(m, identity).entries == m.entries


def test_row_swap_matrix():
    swap = CMatrix.from_rows([[0, 1], [1, 0]])
    m = CMatrix.from_rows([[1 + 1j, 2], [3, 4 - 1j]])
    swapped = mat_mul(swap, m)
    assert swapped.entries == (3, 4 - 1j, 1 + 1j, 2)


def test_matmul_matches_triple_loop_exactly():
    rng = np.random.default_rng(2)
    for _ in range(25):
        a = rand_cmatrix(rng, 4)
        b = rand_cmatrix(rng, 4)
        assert mat_mul(a, b).entries == naive_matmul(a, b).entries


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        mat_mul(CMatrix.zeros(2, 3), CMatrix.zeros(2, 3))


def test_lu_determinant_empty_matrix():
    assert lu_determinant(CMatrix.zeros(0, 0)) == 1


def test_lu_determinant_diagonal():
    assert lu_determinant(CMatrix.from_array(np.diag([1 + 1j, 2]))) == 2 + 2j


def test_lu_determinant_singular():
    m = CMatrix.from_rows([[1, 2], [2, 4]])
    assert abs(lu_determinant(m)) < 1e-14


def test_lu_determinant_matches_cofactor_expansion():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rand_cmatrix(rng, 5)
        expected = cofactor_determinant(m)
        got = lu_determinant(m)
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_power_trace_diagonal_cubes():
    a, b = 0.3 + 0.2j, -1.1 + 0.4j
    assert abs(mat_power_trace(CMatrix.from_array(np.diag([a, b])), 3)
               - (a ** 3 + b ** 3)) < 1e-14


def test_power_trace_order_one_is_diagonal_sum():
    rng = np.random.default_rng(4)
    m = rand_cmatrix(rng, 5)
    assert mat_power_trace(m, 1) == mat_trace(m)


def test_power_trace_matches_nested_sum():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = rand_cmatrix(rng, 3)
        expected = naive_power_trace(m, 4)
        got = mat_power_trace(m, 4)
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_power_trace_rejects_order_zero():
    with pytest.raises(ParameterError):
        mat_power_trace(CMatrix.from_array(np.eye(2, dtype=np.complex128)), 0)


def test_trace_commutes():
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = rand_cmatrix(rng, 6)
        b = rand_cmatrix(rng, 6)
        tab = mat_trace(mat_mul(a, b))
        tba = mat_trace(mat_mul(b, a))
        assert abs(tab - tba) <= 1e-12 * max(1.0, abs(tab))


def test_determinant_is_multiplicative():
    rng = np.random.default_rng(7)
    for _ in range(30):
        a = rand_cmatrix(rng, 5)
        b = rand_cmatrix(rng, 5)
        lhs = lu_determinant(mat_mul(a, b))
        rhs = lu_determinant(a) * lu_determinant(b)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_rank_one_update_determinant():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        u = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        v = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        m = CMatrix(n, n, tuple(
            u[i] * v[j] + (1.0 if i == j else 0.0)
            for i in range(n) for j in range(n)
        ))
        expected = 1 + sum(x * y for x, y in zip(v, u))
        assert abs(lu_determinant(m) - expected) <= 1e-10 * max(1.0, abs(expected))


def test_construction_rejects_nan():
    with pytest.raises(ShapeError):
        CMatrix(1, 1, (complex(float("nan"), 0.0),))


def test_construction_rejects_entry_count_mismatch():
    with pytest.raises(ShapeError):
        CMatrix(2, 2, (1j, 2j, 3j))


def test_matrices_are_immutable():
    m = CMatrix.from_array(np.eye(2, dtype=np.complex128))
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.rows = 3


@pytest.mark.parametrize("bad", [complex("inf"), complex("-inf"), complex(0, float("inf")),
                                 complex("nan"), complex(1.0, float("nan"))])
@pytest.mark.parametrize("idx", [0, 5, 11])  # first, middle and last of a 3x4 matrix
def test_non_finite_entry_is_named_by_flat_index(bad, idx):
    entries = [complex(0.5 * i, -0.25 * i) for i in range(12)]
    entries[idx] = bad
    with pytest.raises(ShapeError) as info:
        CMatrix(3, 4, tuple(entries))
    assert str(info.value) == (f"non-finite entry {bad!r} at flat index {idx} "
                               f"(row {idx // 4}, col {idx % 4})")


def test_finite_entries_whose_sum_overflows_are_accepted():
    for pair in ((1e308, 1e308), (1e308j, 1e308j), (1e308 + 1e308j, 1e308 - 1e308j)):
        assert CMatrix(1, 2, tuple(complex(z) for z in pair)).entries == pair


def test_infinities_that_cancel_in_the_sum_are_still_refused():
    with pytest.raises(ShapeError, match="flat index 1 "):
        CMatrix(1, 3, (1.0 + 0j, complex("inf"), complex("-inf")))
