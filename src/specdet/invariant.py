"""Invariant operators relative to a fixed Hilbert-space decomposition.

An operator that preserves every subspace H_l of an orthogonal decomposition
H = (+)_l H_l is encoded by its block symbol: one d_l x d_l matrix per
retained level.  Traces and trace powers reduce to per-block quantities,

    Tr(T)   = sum_l Tr(sigma(l)),        Tr(T^m) = sum_l Tr(sigma(l)^m),

and the determinant series therefore factorizes over blocks at finite
truncation.  The truncation index L is explicit and user-supplied; tail
contributions are reported through the last-block magnitude, never estimated
analytically.

Spectral models cover the special case of inverse powers of a positive
elliptic operator: given eigenvalues lambda_j with multiplicities d_j and
order nu, the operator (I + E)^(-alpha/nu) has trace powers

    Tr(A^m) = sum_j d_j (1 + lambda_j)^(-alpha*m/nu).

Built-in spectra (circle, flat 2-torus, 2-sphere) are generated by counting;
eigenvalues are not deduplicated, since coinciding levels are legitimate.

Both sums are parts for :class:`specdet.lattice._TracePowers`, the trace-power
engine of every kind: block symbols give one stack of blocks per side class
(:func:`_side_groups`) with weight 1 each, and a spectral model one vector
of 1x1 blocks (1 + lambda_j)^(-alpha/nu) with weights d_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, FeasibilityError, ParameterError, ShapeError
from .lattice import _dot, _real_if_real, _running_sum, _TracePowers
from .linalg import CMatrix, mat_mul
from .plemelj import DetResult, TracePowerSource, plemelj_det

__all__ = [
    "BlockSymbol",
    "SpectralModel",
    "block_trace",
    "block_power_trace",
    "block_trace_source",
    "spectral_trace_source",
    "invariant_determinant",
    "manifold_determinant",
    "weyl_tail_check",
    "WEYL_RATIO_THRESHOLD",
    "circle_model",
    "sphere2_model",
    "torus2_model",
]

#: tail-mass ratio below which a spectral sum counts as comfortably convergent
WEYL_RATIO_THRESHOLD = 0.05


def _read_only(a, shape: tuple, what: str) -> np.ndarray:
    """``a`` as a read-only complex128 array of the given shape, a view of
    a complex128 input; other shapes and non-finite entries are refused."""
    a = np.asarray(a, dtype=np.complex128).view()
    if a.shape != shape:
        raise ShapeError(f"{what} has shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise ShapeError(f"{what} has a non-finite entry")
    a.flags.writeable = False
    return a


@dataclass
class BlockSymbol:
    """Matrix symbol of an invariant operator: one square block per level,
    in level order, each a read-only complex128 array."""

    blocks: tuple
    label: str = ""

    def __post_init__(self):
        self.blocks = tuple(_read_only(b, (len(b),) * 2, f"block {l}")
                            for l, b in enumerate(self.blocks))


def block_trace(s: BlockSymbol) -> complex:
    """Tr(T) = sum_l Tr(sigma(l)) over the retained levels.

    Accumulates diagonal entries in one flat left-to-right pass, matching
    the diagonal sum of the assembled block-diagonal matrix bit for bit.
    """
    return complex(_running_sum(*(b.diagonal() for b in s.blocks)))


def block_power_trace(s: BlockSymbol, m: int) -> complex:
    """Tr(T^m) = sum_l Tr(sigma(l)^m), using sigma(T^m)(l) = sigma(l)^m.

    Diagonal accumulation is flat, as in :func:`block_trace`.
    """
    if m < 1:
        raise ParameterError(f"power must be >= 1, got {m}")
    acc = 0.0j
    for b in map(CMatrix.from_array, s.blocks):
        power = b
        for _ in range(m - 1):
            power = mat_mul(power, b)
        for i in range(power.rows):
            acc += power.at(i, i)
    return acc


def _side_groups(blocks, weights) -> list:
    """``_TracePowers`` parts ``(weights, stack)`` of square array blocks,
    one stack per power-of-two side class ``(side - 1).bit_length()``, in
    order of each class's first block.  Each block is zero-padded to the
    largest side in its class, which leaves its trace powers as they are: a
    few batched products, each at most 8 times the work of the unpadded
    blocks.  A stack is float64 when none of its blocks has a nonzero
    imaginary part, else complex128 (:func:`_real_if_real`); the blocks
    keep their own."""
    by_class: dict = {}
    for b, w in zip(blocks, weights):
        by_class.setdefault((len(b) - 1).bit_length(), []).append((w, b))
    groups = []
    for group in by_class.values():
        side = max(len(b) for _, b in group)
        stack = np.zeros((len(group), side, side), dtype=np.complex128)
        for s, (_, b) in zip(stack, group):
            s[:len(b), :len(b)] = b
        groups.append(([w for w, _ in group], _real_if_real(stack)))
    return groups


def block_trace_source(s: BlockSymbol) -> TracePowerSource:
    """Trace-power source m -> sum_l Tr(sigma(l)^m) with incremental powers."""
    powers = _TracePowers(_side_groups(s.blocks, [1] * len(s.blocks)))
    return TracePowerSource(powers.trace, label=s.label)


def spectral_trace_source(sp: SpectralModel, alpha: float) -> TracePowerSource:
    """Trace-power source m -> sum_j d_j (1 + lambda_j)^(-alpha*m/nu): one
    part of 1x1 blocks (1 + lambda_j)^(-alpha/nu) with weights d_j."""
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    powers = _TracePowers([(sp.multiplicities, (1.0 + sp.eigenvalues) ** (-alpha / sp.nu))])
    return TracePowerSource(powers.trace, label=sp.label)


def invariant_determinant(s: BlockSymbol, lam: complex, order: int = 30,
                          tol: float = 1e-10) -> DetResult:
    """Determinant series of an invariant operator from its block symbol."""
    src = block_trace_source(s)
    result = plemelj_det(src, lam, order=order, tol=tol)
    if s.blocks:
        last = s.blocks[-1]
        # np.hypot is the C hypot of Python's abs(complex); np.abs may differ
        result.diagnostics["last_block_magnitude"] = float(
            np.hypot(last.real, last.imag).max(initial=0.0))
    return result


@dataclass
class SpectralModel:
    """Eigenvalue/multiplicity table of a positive elliptic operator.

    ``eigenvalues[j]`` >= 0 with multiplicity ``multiplicities[j]`` >= 1,
    and ``nu`` > 0 is the operator's order.  Built-in models list
    eigenvalues in nondecreasing order and give the ``manifold_dim`` of
    their manifold; explicit tables may repeat values and give none.
    """

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    nu: float
    label: str = ""
    manifold_dim: int | None = None

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        self.multiplicities = np.asarray(self.multiplicities, dtype=np.int64)
        if self.eigenvalues.ndim != 1 or self.multiplicities.ndim != 1:
            raise ParameterError("eigenvalues and multiplicities must be flat lists")
        if self.eigenvalues.size != self.multiplicities.size:
            raise ParameterError(
                f"{self.eigenvalues.size} eigenvalues but "
                f"{self.multiplicities.size} multiplicities"
            )
        if self.eigenvalues.size == 0:
            raise ParameterError("spectral model must retain at least one eigenvalue")
        if not np.isfinite(self.eigenvalues).all():
            raise EvaluationError(f"model {self.label!r} has non-finite eigenvalues")
        if (self.eigenvalues < 0).any():
            j = int(np.argmax(self.eigenvalues < 0))
            raise EvaluationError(
                f"model {self.label!r} has negative eigenvalue "
                f"{self.eigenvalues[j]:g} at index {j}; the operator must be positive"
            )
        if (self.multiplicities < 1).any():
            raise ParameterError(f"model {self.label!r} has multiplicities < 1")
        if not self.nu > 0:
            raise ParameterError(f"operator order nu must be positive, got {self.nu}")

    @property
    def level_count(self) -> int:
        return int(self.eigenvalues.size)


def weyl_tail_check(sp: SpectralModel, alpha: float) -> float:
    """Fraction of the spectral sum carried by the top half of the levels.

    Computes sum_{J/2 < j <= J} d_j (1+lambda_j)^(-alpha/nu) divided by the
    full sum over j <= J, the last level of the model.  A ratio below
    ``WEYL_RATIO_THRESHOLD`` flags comfortable convergence; larger ratios
    flag a slow or divergent tail.  Meaningful from a few dozen levels up
    (trivially 0 for a single-level model).
    """
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    weights = sp.multiplicities.astype(np.float64)
    values = (1.0 + sp.eigenvalues) ** (-alpha / sp.nu)
    total = float(_dot(weights, values))
    if total == 0.0:
        return 0.0
    half = (sp.level_count - 1) // 2
    tail = float(_dot(weights[half + 1:], values[half + 1:]))
    return tail / total


def manifold_determinant(sp: SpectralModel, alpha: float, lam: complex,
                         order: int = 30, tol: float = 1e-10,
                         manifold_dim: int | None = None) -> DetResult:
    """Determinant series of (I + E)^(-alpha/nu) from the spectrum of E.

    Requires alpha > 0; when the manifold dimension n is known (the
    ``manifold_dim`` given, else the model's) and alpha <= n the
    computation proceeds with a warning, since the spectral sums then
    converge slowly or not at all as the truncation grows.  The tail-mass
    ratio of :func:`weyl_tail_check` is attached to the diagnostics either way.
    """
    result = plemelj_det(spectral_trace_source(sp, alpha), lam, order=order, tol=tol)
    ratio = weyl_tail_check(sp, alpha)
    result.diagnostics["weyl_tail_ratio"] = ratio
    result.diagnostics["weyl_flag"] = (
        "convergent" if ratio < WEYL_RATIO_THRESHOLD else "slow/divergent"
    )
    if manifold_dim is None:
        manifold_dim = sp.manifold_dim
    if manifold_dim is not None and alpha <= manifold_dim:
        result.diagnostics.setdefault("warnings", []).append(
            f"alpha = {alpha:g} does not exceed the manifold dimension "
            f"{manifold_dim}; the spectral sum is not absolutely summable"
        )
    return result


# ---------------------------------------------------------------------------
# Built-in spectra
# ---------------------------------------------------------------------------

def _levels(J: int) -> int:
    """The number J + 1 of levels 0..J a built-in spectrum keeps."""
    if J < 0:
        raise ParameterError(f"J must be >= 0, got {J}")
    if 8 * (J + 1) > np.iinfo(np.intp).max:  # one float64 per level
        raise FeasibilityError(f"J = {J} keeps {J + 1} levels, too many to size", count=J + 1)
    return J + 1


def circle_model(J: int, nu: float = 2.0, label: str = "circle") -> SpectralModel:
    """Laplacian spectrum on the unit circle: lambda_k = 4*pi^2*k^2 with
    multiplicity 1 at k = 0 and 2 for k >= 1."""
    k = np.arange(_levels(J), dtype=np.float64)
    eig = 4.0 * math.pi ** 2 * k ** 2
    mult = np.full(len(k), 2, dtype=np.int64)
    mult[0] = 1
    return SpectralModel(eig, mult, nu, label=label, manifold_dim=1)


def sphere2_model(J: int, nu: float = 2.0, label: str = "sphere2") -> SpectralModel:
    """Laplacian spectrum on the 2-sphere: lambda_j = j(j+1) with
    multiplicity 2j + 1."""
    j = np.arange(_levels(J), dtype=np.float64)
    return SpectralModel(j * (j + 1.0), (2 * j + 1).astype(np.int64),
                         nu, label=label, manifold_dim=2)


def torus2_model(J: int, nu: float = 2.0, label: str = "torus2") -> SpectralModel:
    """Laplacian spectrum on the flat 2-torus by lattice-point counting:
    the J+1 smallest distinct values 4*pi^2*q over q = |m|^2, m in Z^2,
    with multiplicity the number of lattice points of that squared norm."""
    n = _levels(J)
    # About 0.764 N / sqrt(ln N) integers up to N are sums of two squares
    # (Landau-Ramanujan), a slight undercount at these N: t sqrt(ln(t + 2)),
    # t = (J + 1) / 0.764, exceeds the (J+1)-th norm by 1.7-4.3 % for every
    # J up to 10^4, and 5 % more keeps the count to one pass there
    t = n / 0.764
    bound = math.isqrt(int(1.05 * t * math.sqrt(math.log(t + 2)))) + 1
    while True:
        squares = np.arange(-bound, bound + 1, dtype=np.int64) ** 2
        counts = np.bincount(np.add.outer(squares, squares).ravel())[: bound * bound + 1]
        norms = np.flatnonzero(counts)[:n]
        if len(norms) == n:
            break
        bound *= 2
    eig = 4.0 * math.pi ** 2 * norms.astype(np.float64)
    mult = counts[norms].astype(np.int64)
    return SpectralModel(eig, mult, nu, label=label, manifold_dim=2)
