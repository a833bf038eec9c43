"""Vector-valued symbols of invariant operators on homogeneous bundles.

A bundle symbol assigns to each fiber index pair (i, r) with
1 <= i, r <= d_tau and each retained dual block xi (of dimension d_xi) a
d_xi x d_xi matrix sigma(i, r, xi), held as one complex128 array per dual
block: ``sigma[xi][i - 1, r - 1]``.  The dual object is an explicit finite
list of labeled blocks; no representation theory is computed here, because
the trace and determinant formulas consume only (d_xi, sigma(i, r, xi)).

Composition contracts over the intermediate fiber index,

    sigma_BA(i, s, xi) = sum_r sigma_B(r, s, xi) . sigma_A(i, r, xi),

with matrix products taken in exactly that order, and the m-th power symbol
is the chain sum over (r_1, ..., r_{m-1}) of
sigma(r_1, r_0) . sigma(r_2, r_1) ... sigma(r_m, r_{m-1}) multiplied
left-to-right in increasing chain position.  Powers are computed by iterated
composition of CMatrix copies, a reference route; the literal chain sum
lives in :mod:`specdet.oracle`.

Flattening makes those conventions concrete.  ``flatten_symbol(a, xi)``
transposes and reshapes sigma[xi] into the (d_tau*d_xi) x (d_tau*d_xi)
array S_xi whose block at block-row r, block-column i is sigma(i, r, xi),
so composition becomes the ordinary product S_xi(BA) = S_xi(B) . S_xi(A).
Worked 2x2 example with d_tau = 2, d_xi = 1 and sigma(i, r, xi) = [[s_ir]]:

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

import numpy as np

from .errors import ParameterError, ShapeError
from .invariant import _WeightedBlockPowers, _read_only, _side_groups
from .lattice import _running_sum
from .linalg import CMatrix, mat_add, mat_mul
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
    """Symbol family sigma(i, r, xi) with 1-based fiber indices, held as one
    read-only complex128 array per dual block: ``sigma[xi][i - 1, r - 1]``
    is the d_xi x d_xi matrix sigma(i, r, xi)."""

    fiber_dim: int
    dual: DualObject
    sigma: dict
    label: str = ""

    def __post_init__(self):
        if self.fiber_dim < 1:
            raise ParameterError(f"fiber dimension must be >= 1, got {self.fiber_dim}")
        if set(self.sigma) != set(self.dual.ids):
            raise ParameterError(f"sigma holds arrays for {list(self.sigma)}, "
                                 f"not for the dual blocks {list(self.dual.ids)}")
        self.sigma = {xi: _read_only(self.sigma[xi], (self.fiber_dim,) * 2 + (d, d),
                                     f"sigma(., ., {xi!r})") for xi, d in self.dual.blocks}

    def block(self, i: int, r: int, xi: str) -> np.ndarray:
        if not (1 <= i <= self.fiber_dim and 1 <= r <= self.fiber_dim):
            raise ParameterError(
                f"fiber indices ({i}, {r}) outside 1..{self.fiber_dim}"
            )
        self.dual.dim(xi)  # names an unknown block
        return self.sigma[xi][i - 1, r - 1]

    @classmethod
    def from_entries(cls, fiber_dim: int, dual: DualObject, entries,
                     label: str = "") -> "BundleSymbol":
        """Build from a mapping (i, r, xi) -> d_xi x d_xi matrix; missing
        entries are 0, and entries outside the symbol are refused."""
        n = max(fiber_dim, 0)  # a bad fiber_dim is refused by __post_init__
        sigma = {xi: np.zeros((n, n, d, d), dtype=np.complex128) for xi, d in dual.blocks}
        for (i, r, xi), b in dict(entries).items():
            if not (1 <= i <= fiber_dim and 1 <= r <= fiber_dim):
                raise ParameterError(f"fiber indices ({i}, {r}) outside 1..{fiber_dim}")
            if np.shape(b) != (dual.dim(xi),) * 2:
                raise ShapeError(f"sigma({i}, {r}, {xi!r}) has shape {np.shape(b)}")
            sigma[xi][i - 1, r - 1] = b
        return cls(fiber_dim, dual, sigma, label=label)

    @classmethod
    def identity(cls, fiber_dim: int, dual: DualObject) -> "BundleSymbol":
        """sigma(i, r, xi) = delta_{ir} I_{d_xi}."""
        n = max(fiber_dim, 0)  # a bad fiber_dim is refused by __post_init__
        return cls(fiber_dim, dual, {xi: np.multiply.outer(np.eye(n), np.eye(d))
                                     for xi, d in dual.blocks}, label="identity")


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
    sigma = {xi: np.empty_like(a.sigma[xi]) for xi in a.sigma}
    for xi, d in a.dual.blocks:
        for i in range(1, d_tau + 1):
            for s in range(1, d_tau + 1):
                acc = CMatrix.zeros(d, d)
                for r in range(1, d_tau + 1):
                    acc = mat_add(acc, mat_mul(CMatrix.from_array(b.block(r, s, xi)),
                                               CMatrix.from_array(a.block(i, r, xi))))
                sigma[xi][i - 1, s - 1] = np.reshape(acc.entries, (d, d))
    label = f"({b.label or 'B'}).({a.label or 'A'})"
    return BundleSymbol(d_tau, a.dual, sigma, label=label)


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
        t = _running_sum([_running_sum(a.sigma[xi][i, i].diagonal())
                          for i in range(a.fiber_dim)])
        acc += complex(d * t.real, d * t.imag)
    return acc


def flatten_symbol(a: BundleSymbol, xi: str) -> np.ndarray:
    """Assemble S_xi with block (row r, column i) = sigma(i, r, xi).

    The operator's action on stacked Fourier columns is then ordinary
    left multiplication by S_xi, and flattening is multiplicative over
    composition.
    """
    side = a.fiber_dim * a.dual.dim(xi)
    return a.sigma[xi].transpose(1, 2, 0, 3).reshape(side, side)


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
