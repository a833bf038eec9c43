"""Vector-valued symbols of invariant operators on homogeneous bundles.

A bundle symbol assigns to each fiber index pair (i, r) with
1 <= i, r <= d_tau and each retained dual block xi (of dimension d_xi) a
d_xi x d_xi matrix sigma(i, r, xi).  The dual object is an explicit finite
list of labeled blocks; no representation theory is computed here, because
the trace and determinant formulas consume only (d_xi, sigma(i, r, xi)).

Composition contracts over the intermediate fiber index,

    sigma_BA(i, s, xi) = sum_r sigma_B(r, s, xi) . sigma_A(i, r, xi),

with matrix products taken in exactly that order, and the m-th power symbol
is the chain sum over (r_1, ..., r_{m-1}) of
sigma(r_1, r_0) . sigma(r_2, r_1) ... sigma(r_m, r_{m-1}) multiplied
left-to-right in increasing chain position.  Powers are computed by iterated
composition; the literal chain sum lives in :mod:`specdet.oracle`.

Flattening makes those conventions concrete.  ``flatten_symbol(a, xi)``
builds the (d_tau*d_xi) x (d_tau*d_xi) matrix S_xi whose block at
block-row r, block-column i is sigma(i, r, xi), so composition becomes the
ordinary product S_xi(BA) = S_xi(B) . S_xi(A).  Worked 2x2 example with
d_tau = 2, d_xi = 1 and sigma(i, r, xi) = [[s_ir]]:

    S_xi = [[s_11, s_21],
            [s_12, s_22]]     # row r, column i

so a stacked Fourier column (f_1, f_2)^T is acted on by left multiplication
and the (r, i) entry feeds component i of the input to component r of the
output.  The block multiplicity d_xi enters traces exactly once, as the
prefactor in Tr(A) = sum_xi d_xi sum_i Tr(sigma(i, i, xi)), never inside
S_xi itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ParameterError, ShapeError
from .invariant import _WeightedBlockPowers, _side_groups
from .linalg import CMatrix, mat_add, mat_mul, mat_trace
from .plemelj import DetResult, TracePowerSource, plemelj_det

__all__ = [
    "DualObject",
    "BundleSymbol",
    "bundle_compose",
    "bundle_power",
    "bundle_trace",
    "flatten_symbol",
    "bundle_trace_source",
    "bundle_determinant",
]


@dataclass(frozen=True)
class DualObject:
    """Finite list of retained dual blocks as (id, dimension) pairs."""

    blocks: tuple
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "blocks",
                           tuple((str(i), int(d)) for i, d in self.blocks))
        ids = [i for i, _ in self.blocks]
        if len(set(ids)) != len(ids):
            raise ParameterError(f"duplicate dual block ids in {ids}")
        for i, d in self.blocks:
            if d < 1:
                raise ParameterError(f"dual block {i!r} has dimension {d} < 1")

    @property
    def ids(self) -> tuple:
        return tuple(i for i, _ in self.blocks)

    def dim(self, xi: str) -> int:
        for i, d in self.blocks:
            if i == xi:
                return d
        raise ParameterError(f"unknown dual block {xi!r}; have {list(self.ids)}")


@dataclass
class BundleSymbol:
    """Symbol family sigma(i, r, xi) with 1-based fiber indices."""

    fiber_dim: int
    dual: DualObject
    sigma: Callable[[int, int, str], CMatrix]
    label: str = ""

    def __post_init__(self):
        if self.fiber_dim < 1:
            raise ParameterError(f"fiber dimension must be >= 1, got {self.fiber_dim}")

    def block(self, i: int, r: int, xi: str) -> CMatrix:
        if not (1 <= i <= self.fiber_dim and 1 <= r <= self.fiber_dim):
            raise ParameterError(
                f"fiber indices ({i}, {r}) outside 1..{self.fiber_dim}"
            )
        b = self.sigma(i, r, xi)
        d = self.dual.dim(xi)
        if b.rows != d or b.cols != d:
            raise ShapeError(
                f"sigma({i}, {r}, {xi!r}) is {b.rows}x{b.cols}, expected {d}x{d}"
            )
        return b

    @classmethod
    def from_entries(cls, fiber_dim: int, dual: DualObject, entries,
                     label: str = "") -> "BundleSymbol":
        """Build from a mapping (i, r, xi) -> CMatrix; missing entries are 0."""
        table = {(int(i), int(r), str(xi)): b for (i, r, xi), b in dict(entries).items()}

        def sigma(i, r, xi):
            got = table.get((i, r, xi))
            if got is None:
                d = dual.dim(xi)
                return CMatrix.zeros(d, d)
            return got

        return cls(fiber_dim, dual, sigma, label=label)

    @classmethod
    def identity(cls, fiber_dim: int, dual: DualObject) -> "BundleSymbol":
        """sigma(i, r, xi) = delta_{ir} I_{d_xi}."""

        def sigma(i, r, xi):
            d = dual.dim(xi)
            return CMatrix.identity(d) if i == r else CMatrix.zeros(d, d)

        return cls(fiber_dim, dual, sigma, label="identity")


def _check_compatible(b: BundleSymbol, a: BundleSymbol):
    if a.fiber_dim != b.fiber_dim:
        raise ShapeError(
            f"fiber dimensions differ: {b.fiber_dim} vs {a.fiber_dim}"
        )
    if a.dual.blocks != b.dual.blocks:
        raise ShapeError("symbols are defined over different dual objects")


def bundle_compose(b: BundleSymbol, a: BundleSymbol) -> BundleSymbol:
    """Symbol of the composition (b after a):
    sigma_BA(i, s, xi) = sum_r sigma_B(r, s, xi) . sigma_A(i, r, xi)."""
    _check_compatible(b, a)
    d_tau = a.fiber_dim
    table = {}
    for xi, d in a.dual.blocks:
        for i in range(1, d_tau + 1):
            for s in range(1, d_tau + 1):
                acc = CMatrix.zeros(d, d)
                for r in range(1, d_tau + 1):
                    acc = mat_add(acc, mat_mul(b.block(r, s, xi), a.block(i, r, xi)))
                table[(i, s, xi)] = acc
    label = f"({b.label or 'B'}).({a.label or 'A'})"
    return BundleSymbol.from_entries(d_tau, a.dual, table, label=label)


def bundle_power(a: BundleSymbol, m: int) -> BundleSymbol:
    """m-th power symbol by iterated composition (m >= 1)."""
    if m < 1:
        raise ParameterError(f"power must be >= 1, got {m}")
    acc = a
    for _ in range(m - 1):
        acc = bundle_compose(a, acc)
    return acc


def bundle_trace(a: BundleSymbol) -> complex:
    """Tr(A) = sum_xi d_xi sum_i Tr(sigma(i, i, xi))."""
    acc = 0.0j
    for xi, d in a.dual.blocks:
        block_acc = 0.0j
        for i in range(1, a.fiber_dim + 1):
            block_acc += mat_trace(a.block(i, i, xi))
        acc += d * block_acc
    return acc


def flatten_symbol(a: BundleSymbol, xi: str) -> CMatrix:
    """Assemble S_xi with block (row r, column i) = sigma(i, r, xi).

    The operator's action on stacked Fourier columns is then ordinary
    left multiplication by S_xi, and flattening is multiplicative over
    composition.
    """
    d_xi = a.dual.dim(xi)
    d_tau = a.fiber_dim
    side = d_tau * d_xi
    out = [[0.0j] * side for _ in range(side)]
    for r in range(1, d_tau + 1):
        for i in range(1, d_tau + 1):
            b = a.block(i, r, xi)
            for br in range(d_xi):
                for bc in range(d_xi):
                    out[(r - 1) * d_xi + br][(i - 1) * d_xi + bc] = b.at(br, bc)
    return CMatrix.from_rows(out)


def bundle_trace_source(a: BundleSymbol) -> TracePowerSource:
    """Trace-power source m -> sum_xi d_xi Tr(S_xi^m) with incremental powers."""
    powers = _WeightedBlockPowers(_side_groups(
        [flatten_symbol(a, xi) for xi, _ in a.dual.blocks], [d for _, d in a.dual.blocks]))
    return TracePowerSource(powers.trace, label=a.label)


def bundle_determinant(a: BundleSymbol, lam: complex, order: int = 30,
                       tol: float = 1e-10) -> DetResult:
    """Determinant series with trace powers sum_xi d_xi Tr(S_xi^m).

    The flattened matrix powers realize the chain sums of the power symbol;
    the literal multi-index form is kept in :mod:`specdet.oracle` as the
    cross-check.
    """
    return plemelj_det(bundle_trace_source(a), lam, order=order, tol=tol)
