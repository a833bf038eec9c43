"""Independent brute-force cross-checks for every determinant route.

Everything here is deliberately naive: truncations are assembled entry by
entry, determinants go through the pivoted LU of the assembled matrix, and
cycle traces are literal nested sums over closed index chains.  None of it
shares code with the fast paths beyond CMatrix construction, because an
oracle that reuses the system under test checks nothing.  Feasibility
guards refuse loudly, reporting the offending count, rather than silently
truncating.
"""

from __future__ import annotations

import cmath
import itertools

from .errors import EvaluationError, FeasibilityError, ParameterError
from .lattice import DENSE_SIDE_LIMIT
from .linalg import CMatrix, lu_determinant, mat_mul

__all__ = [
    "TruncationIndexMap",
    "assemble_truncation",
    "check_truncation_determinant",
    "direct_determinant",
    "literal_cycle_sum",
    "literal_power_symbol",
    "block_determinant_product",
    "spectral_determinant_product",
    "bundle_determinant_product",
    "ASSEMBLY_SIDE_GUARD",
    "LU_UPDATE_GUARD",
    "CYCLE_COUNT_GUARD",
]

#: largest dense truncation side the oracle will assemble: side^2 entries are
#: at most the pairs the fast paths' entry walk may evaluate
ASSEMBLY_SIDE_GUARD = DENSE_SIDE_LIMIT
#: largest LU the oracle will run, in multiply-subtract updates: (n^3 - n) / 3
#: at side n, side 465 at most.  The pure-Python LU took 135-140 ns per
#: update on dense complex matrices of sides 100-300 (2-core x86-64 VM,
#: CPython 3.11), so it answers within about 5 s, where side 2001 would
#: run for 6 minutes; the sides the tests, the fixture sweep and the
#: benchmark workloads reach are at most 289
LU_UPDATE_GUARD = 2 ** 25
#: largest number of closed chains the literal cycle sum will visit
CYCLE_COUNT_GUARD = 10_000_000


class TruncationIndexMap:
    """Stable lexicographic bijection between {0..(2R+1)^n - 1} and the
    box |.|_inf <= R in Z^n."""

    def __init__(self, dim: int, cutoff: int):
        if dim < 1 or cutoff < 1:
            raise ParameterError(
                f"dim and cutoff must be >= 1, got dim={dim}, cutoff={cutoff}"
            )
        self.dim = dim
        self.cutoff = cutoff
        self.points = list(itertools.product(range(-cutoff, cutoff + 1), repeat=dim))

    def __len__(self) -> int:
        return len(self.points)

    def index(self, position: int):
        return self.points[position]

    def position(self, point) -> int:
        return sum((x + self.cutoff) * (2 * self.cutoff + 1) ** (self.dim - 1 - a)
                   for a, x in enumerate(point))


def _assembly_guard(side: int):
    if side > ASSEMBLY_SIDE_GUARD:
        raise FeasibilityError(f"truncation side {side} exceeds the assembly guard "
                               f"{ASSEMBLY_SIDE_GUARD}", count=side)


def _lu_guard(n: int):
    if (updates := (n ** 3 - n) // 3) > LU_UPDATE_GUARD:
        raise FeasibilityError(f"LU determinant of side {n} needs {updates} updates, "
                               f"above the guard of {LU_UPDATE_GUARD}", count=updates)


def check_truncation_determinant(dim: int, cutoff: int):
    """Refuse, before anything is built, the determinant of a truncation
    that :func:`assemble_truncation` or :func:`direct_determinant` would
    refuse, as they would; a cutoff below 1 is left to them."""
    if cutoff >= 1:
        _assembly_guard((2 * cutoff + 1) ** dim)
        _lu_guard((2 * cutoff + 1) ** dim)


def assemble_truncation(k, cutoff: int) -> CMatrix:
    """Dense matrix of the kernel over the box, row = output index.

    Entry (row(i), col(j)) equals K(i, j) under the lexicographic index
    map, so the matrix acts on coefficient columns exactly as the operator
    acts on basis coefficients.
    """
    if cutoff < 1:
        raise ParameterError(f"cutoff must be >= 1, got {cutoff}")
    side = (2 * cutoff + 1) ** k.dim
    _assembly_guard(side)
    imap = TruncationIndexMap(k.dim, cutoff)
    entries = []
    for i in imap.points:
        for j in imap.points:
            v = complex(k.eval(i, j))
            if not cmath.isfinite(v):
                raise EvaluationError(
                    f"kernel {getattr(k, 'label', '')!r} is non-finite at "
                    f"(i={i}, j={j})"
                )
            entries.append(v)
    return CMatrix(side, side, tuple(entries))


def direct_determinant(m: CMatrix, lam: complex) -> complex:
    """LU determinant of I + lambda*m."""
    if not m.is_square:
        raise ParameterError(f"direct determinant needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    _lu_guard(n)
    lam = complex(lam)
    shifted = [lam * z + 0.0 for z in m.entries]
    shifted[::n + 1] = [lam * z + 1.0 for z in m.entries[::n + 1]]
    return lu_determinant(CMatrix(n, n, tuple(shifted)))


def literal_cycle_sum(k, m: int, cutoff: int) -> complex:
    """Verbatim nested sum over closed chains (j_0, ..., j_m), j_0 = j_m,
    of prod_{s=1..m} K(j_{s-1}, j_s) over the box."""
    if m < 1 or cutoff < 1:
        raise ParameterError(f"m and cutoff must be >= 1, got m={m}, cutoff={cutoff}")
    side = (2 * cutoff + 1) ** k.dim
    count = side ** m
    if count > CYCLE_COUNT_GUARD:
        raise FeasibilityError(
            f"literal cycle sum would visit {count} chains "
            f"(side {side}, order {m}); guard is {CYCLE_COUNT_GUARD}",
            count=count,
        )
    box = list(itertools.product(range(-cutoff, cutoff + 1), repeat=k.dim))
    total = 0.0j
    for chain in itertools.product(box, repeat=m):
        closed = chain + (chain[0],)
        prod = 1.0 + 0.0j
        for s in range(1, m + 1):
            prod *= complex(k.eval(closed[s - 1], closed[s]))
        total += prod
    return total


def literal_power_symbol(a, m: int, r_m: int, r_0: int, xi: str) -> CMatrix:
    """Verbatim chain sum for the m-th power symbol:
    sum over (r_1..r_{m-1}) of sigma(r_1, r_0) . sigma(r_2, r_1) ...
    sigma(r_m, r_{m-1}), products multiplied left to right."""
    if m < 1:
        raise ParameterError(f"power must be >= 1, got {m}")
    d_tau = a.fiber_dim
    d = a.dual.dim(xi)
    total = CMatrix.zeros(d, d)
    for inner in itertools.product(range(1, d_tau + 1), repeat=m - 1):
        chain = (r_0,) + inner + (r_m,)
        prod = CMatrix.from_array(a.block(chain[1], chain[0], xi))
        for s in range(2, m + 1):
            prod = mat_mul(prod, CMatrix.from_array(a.block(chain[s], chain[s - 1], xi)))
        total = CMatrix(d, d, tuple(x + y for x, y in zip(total.entries, prod.entries)))
    return total


def block_determinant_product(s, lam: complex) -> complex:
    """prod_l Det(I + lambda*sigma(l)) by per-block LU."""
    det = 1.0 + 0.0j
    for b in s.blocks:
        det *= direct_determinant(CMatrix.from_array(b), lam)
    return det


def spectral_determinant_product(sp, alpha: float, lam: complex) -> complex:
    """prod_j (1 + lambda*(1 + lambda_j)^(-alpha/nu))^(d_j) over the
    truncated spectrum, accumulated level by level."""
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    lam = complex(lam)
    det = 1.0 + 0.0j
    exponent = -alpha / sp.nu
    # Python floats and ints: indexed numpy scalars cost several times more
    for eig, mult in zip(sp.eigenvalues.tolist(), sp.multiplicities.tolist()):
        factor = 1.0 + lam * (1.0 + eig) ** exponent
        det *= factor ** mult
    return det


def bundle_determinant_product(a, lam: complex) -> complex:
    """prod_xi Det(I + lambda*S_xi)^(d_xi) over the flattened blocks."""
    from .bundles import flatten_symbol

    det = 1.0 + 0.0j
    for xi, d in a.dual.blocks:
        det *= direct_determinant(CMatrix.from_array(flatten_symbol(a, xi)), lam) ** d
    return det
