"""Dense complex-matrix primitives with deterministic arithmetic.

Every sum here accumulates in index-ascending order and the LU pivot rule
is fixed (largest complex modulus, ties to the lowest row index), so results
are bit-reproducible run to run.  Matrices are immutable; all operations
return fresh values.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import ParameterError, ShapeError

__all__ = [
    "CMatrix",
    "mat_mul",
    "mat_add",
    "mat_trace",
    "mat_power_trace",
    "lu_determinant",
]


@dataclass(frozen=True)
class CMatrix:
    """Immutable dense complex matrix in row-major order."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ShapeError(f"negative dimensions {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        if cmath.isfinite(sum(self.entries, 0j)):
            return
        # a non-finite entry, or finite entries whose sum overflowed
        for idx, z in enumerate(self.entries):
            if not cmath.isfinite(z):
                raise ShapeError(
                    f"non-finite entry {z!r} at flat index {idx} "
                    f"(row {idx // max(1, self.cols)}, col {idx % max(1, self.cols)})"
                )

    @classmethod
    def from_rows(cls, rows) -> "CMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if n else 0
        if any(len(r) != m for r in rows):
            raise ShapeError("ragged row lengths")
        return cls(n, m, tuple(complex(z) for r in rows for z in r))

    @classmethod
    def from_array(cls, a) -> "CMatrix":
        """The CMatrix of a 2-D complex128 array, entry for entry."""
        return cls(*a.shape, tuple(a.ravel().tolist()))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "CMatrix":
        return cls(rows, cols, (0.0j,) * (rows * cols))

    def at(self, i: int, j: int) -> complex:
        return self.entries[i * self.cols + j]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


def mat_mul(a: CMatrix, b: CMatrix) -> CMatrix:
    """Matrix product with left-to-right (k-ascending) accumulation."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    n, k_dim, m = a.rows, a.cols, b.cols
    ae, be = a.entries, b.entries
    out = [0.0j] * (n * m)
    for i in range(n):
        arow = i * k_dim
        orow = i * m
        for j in range(m):
            acc = 0.0j
            for k in range(k_dim):
                acc += ae[arow + k] * be[k * m + j]
            out[orow + j] = acc
    return CMatrix(n, m, tuple(out))


def mat_add(a: CMatrix, b: CMatrix) -> CMatrix:
    if a.rows != b.rows or a.cols != b.cols:
        raise ShapeError(f"cannot add {a.rows}x{a.cols} and {b.rows}x{b.cols}")
    return CMatrix(a.rows, a.cols, tuple(x + y for x, y in zip(a.entries, b.entries)))


def mat_trace(m: CMatrix) -> complex:
    if not m.is_square:
        raise ShapeError(f"trace of non-square {m.rows}x{m.cols} matrix")
    acc = 0.0j
    for i in range(m.rows):
        acc += m.entries[i * m.cols + i]
    return acc


def mat_power_trace(m: CMatrix, p: int) -> complex:
    """Tr(m^p) by repeated multiplication; p must be >= 1."""
    if not m.is_square:
        raise ShapeError(f"power trace of non-square {m.rows}x{m.cols} matrix")
    if p < 1:
        raise ParameterError(f"power must be >= 1, got {p}")
    power = m
    for _ in range(p - 1):
        power = mat_mul(power, m)
    return mat_trace(power)


def lu_determinant(m: CMatrix) -> complex:
    """Determinant via LU with partial pivoting on complex modulus.

    Pivot ties break to the lowest row index; the 0x0 matrix has
    determinant 1 (empty product).  Singular input returns 0 within
    rounding.
    """
    if not m.is_square:
        raise ShapeError(f"determinant of non-square {m.rows}x{m.cols} matrix")
    n = m.rows
    if n == 0:
        return 1.0 + 0.0j
    a = [list(m.entries[i * n:(i + 1) * n]) for i in range(n)]
    sign = 1.0
    for col in range(n):
        pivot_row = col
        pivot_mag = abs(a[col][col])
        for r in range(col + 1, n):
            mag = abs(a[r][col])
            if mag > pivot_mag:
                pivot_mag = mag
                pivot_row = r
        if pivot_mag == 0.0:
            return 0.0j
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        pivot = a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / pivot
            if factor != 0.0:
                arow = a[r]
                prow = a[col]
                for c in range(col, n):
                    arow[c] -= factor * prow[c]
    det = complex(sign)
    for i in range(n):
        det *= a[i][i]
    return det
