"""Naive oracles and random-instance helpers shared by the test suite.

Every oracle here is coded independently of the library fast paths (only
CMatrix construction is shared), and deliberately kept as close to the
defining formula as possible.
"""

from __future__ import annotations

import numpy as np

from specdet import CMatrix


def rand_complex(rng, scale: float = 1.0) -> complex:
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def rand_cmatrix(rng, rows: int, cols: int | None = None, scale: float = 1.0) -> CMatrix:
    cols = rows if cols is None else cols
    return CMatrix(rows, cols,
                   tuple(rand_complex(rng, scale) for _ in range(rows * cols)))


def as_array(m: CMatrix) -> np.ndarray:
    """The complex128 array of a CMatrix, entry for entry."""
    return np.reshape(np.array(m.entries, dtype=np.complex128), (m.rows, m.cols))


def rand_block(rng, n: int, scale: float = 1.0) -> np.ndarray:
    """The n x n array of ``rand_cmatrix(rng, n, scale=scale)``, from the
    same draws."""
    return as_array(rand_cmatrix(rng, n, scale=scale))


def naive_matmul(a: CMatrix, b: CMatrix) -> CMatrix:
    """Triple-loop product, k ascending, written from the definition."""
    assert a.cols == b.rows
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            total = 0j
            for k in range(a.cols):
                total += a.at(i, k) * b.at(k, j)
            out.append(total)
    return CMatrix(a.rows, b.cols, tuple(out))


def cofactor_determinant(m: CMatrix) -> complex:
    """Recursive cofactor expansion along the first row; fine for n <= 7."""
    n = m.rows
    if n == 0:
        return 1 + 0j
    if n == 1:
        return m.at(0, 0)
    total = 0j
    for j in range(n):
        minor_entries = []
        for r in range(1, n):
            for c in range(n):
                if c != j:
                    minor_entries.append(m.at(r, c))
        minor = CMatrix(n - 1, n - 1, tuple(minor_entries))
        total += ((-1) ** j) * m.at(0, j) * cofactor_determinant(minor)
    return total


def naive_power_trace(m: CMatrix, p: int) -> complex:
    """Literal nested sum over index chains i0 -> i1 -> ... -> i0."""
    import itertools

    n = m.rows
    total = 0j
    for chain in itertools.product(range(n), repeat=p):
        closed = chain + (chain[0],)
        prod = 1 + 0j
        for s in range(p):
            prod *= m.at(closed[s], closed[s + 1])
        total += prod
    return total


def charpoly_eig_det(m: CMatrix, lam: complex) -> complex:
    """det(I + lam*m) as the product of the eigenvalues of I + lam*m,
    the eigenvalues obtained as roots of the characteristic polynomial
    computed by the Faddeev-LeVerrier recursion."""
    n = m.rows
    a = np.array([[complex(lam) * m.at(i, j) + (1.0 if i == j else 0.0)
                   for j in range(n)] for i in range(n)], dtype=complex)
    coeffs = [1.0 + 0j]  # monic characteristic polynomial of a
    mk = np.zeros_like(a)
    for k in range(1, n + 1):
        mk = a @ mk + coeffs[-1] * np.eye(n)
        coeffs.append(-(a @ mk).trace() / k)
    roots = np.roots(np.array(coeffs))
    det = 1 + 0j
    for r in roots:
        det *= complex(r)
    return det


def assemble_block_diagonal(blocks) -> CMatrix:
    """Block-diagonal matrix with the given square array blocks on the
    diagonal."""
    side = sum(len(b) for b in blocks)
    entries = [[0j] * side for _ in range(side)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b.tolist()):
            for j, z in enumerate(row):
                entries[offset + i][offset + j] = z
        offset += len(b)
    return CMatrix.from_rows(entries)


def bits(z) -> list:
    """Raw IEEE bits of a float or complex, so -0.0 and 0.0 differ."""
    return np.array([z], dtype=np.complex128).view(np.uint64).tolist()


def non_finite_site(message: str) -> tuple:
    """The (row, column) index pair an EvaluationError message names; the
    library writes (j=..., m=...), the oracle (i=..., j=...)."""
    import re

    found = re.search(r"\((?:j|i)=(\(.*?\)), (?:m|j)=(\(.*?\))\)", message)
    return found.group(1), found.group(2)


def matrix_entries(matrix: np.ndarray) -> tuple:
    """The nonzero entries ``(rows, cols, vals)`` of a matrix, in (row, col)
    order."""
    rows, cols = np.nonzero(matrix)
    return rows.astype(np.int64), cols.astype(np.int64), matrix[rows, cols]


def support_entries(k, cutoff: int) -> tuple:
    """``k.support_arrays(cutoff)`` as ``(rows, cols, vals)``: a matrix of
    the box gives every pair, row by row."""
    given = k.support_arrays(cutoff)
    if isinstance(given, np.ndarray):
        rows, cols = np.indices(given.shape, dtype=np.int64).reshape(2, -1)
        return rows, cols, given.ravel()
    return given


def assert_truncation_is_entry_walk(k, cutoff: int):
    """The remembered truncation of a kernel against the oracle's
    entry-by-entry assembly at the same cutoff: a dense one is that matrix
    alone; otherwise its entries have equal bits where present, zero
    elsewhere, and are strictly sorted by (row, col).  It is stored float64
    exactly when no entry of the assembly has a nonzero imaginary part, and
    its real values then have the bits of the real parts.  The p = 1 norm,
    the trace and the p = 2 Schur bound equal plain Python walks over that
    assembly bit for bit."""
    from specdet import assemble_truncation, lattice_trace, nuclear_norm_estimate, schur_bound
    from specdet.lattice import _truncation

    a = as_array(assemble_truncation(k, cutoff))
    mode, entries, matrix = _truncation(k, cutoff)
    real = not a.imag.any()
    want = a.real if real else a
    if mode == "dense":
        assert entries is None
        assert np.array_equal(matrix, want)
        rows, cols, vals = matrix_entries(matrix)
    else:
        assert matrix is None
        rows, cols, vals = entries
    assert k._truncated[0] == cutoff
    assert rows.dtype == cols.dtype == np.int64
    assert vals.dtype == (np.float64 if real else np.complex128)
    assert (np.diff(rows * len(a) + cols) > 0).all()
    assert np.array_equal(vals.view(np.uint64), want[rows, cols].view(np.uint64))
    elsewhere = np.ones(a.shape, dtype=bool)
    elsewhere[rows, cols] = False
    assert (a[elsewhere] == 0).all()
    total = 0.0
    row_sums, col_sums = [0.0] * len(a), [0.0] * len(a)
    for r, row in enumerate(a.tolist()):
        row_sum = 0.0
        for c, v in enumerate(row):
            row_sum += abs(v)
            row_sums[r] += abs(v)
            col_sums[c] += abs(v)
        total += row_sum
    assert bits(nuclear_norm_estimate(k, 1.0, cutoff)) == bits(total)
    assert bits(schur_bound(k, 2.0, cutoff)) == bits(max(col_sums) ** 0.5 * max(row_sums) ** 0.5)
    acc = 0.0j
    for n in range(len(a)):
        acc += complex(a[n, n])
    assert bits(lattice_trace(k, cutoff)) == bits(acc)
