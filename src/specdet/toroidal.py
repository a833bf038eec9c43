"""Toroidal symbols sigma(x, k) on T^n x Z^n and their quantization.

The torus is parameterized as [0,1)^n and the Fourier transform follows the
e^{-2*pi*i*x.k} convention, so the Fourier coefficient of sigma(., k) at the
mode l is

    sigma_hat(l, k) = int_{T^n} e^{-2*pi*i*x.l} sigma(x, k) dx,

approximated by the uniform-grid DFT (exact for trigonometric polynomials of
degree < N_x - |l|).  The quantized operator acts on Fourier coefficients
through the matrix

    A[j, k] = sigma_hat(j - k, k),

which is handed to :mod:`specdet.lattice` as a kernel supported on the box
|.|_inf <= R.  Requested modes at or beyond N_x/2 are rejected outright
rather than silently folded, since aliased coefficients would corrupt the
matrix invisibly.  A symbol that lists its coefficients in closed form (a
coefficient table), or that does not depend on x, is quantized from its
listed entries, with no FFT; any other symbol is sampled on the grid and
its quantization kept as the matrix itself.

The declared symbol order nu is never trusted for correctness; it only
drives warnings and the decay diagnostics, because rapid decay in k is a
sufficient condition whose sharpness is exactly what the norm-growth
profile is for.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import AliasingError, EvaluationError, FeasibilityError, ParameterError
from .lattice import (
    Index,
    LatticeKernel,
    _as_index,
    _box_points,
    _modulus_sums,
    _mul,
    _positions,
    _site_arrays,
    _sized_side,
    _table_sites,
    _sup_norms,
    iter_box,
    lattice_determinant,
    nuclear_norm_estimate,
)
from .plemelj import DetResult

__all__ = [
    "ToroidalSymbol",
    "symbol_fourier_coeff",
    "toroidal_matrix",
    "poincare_norm",
    "schur_bound",
    "toroidal_determinant",
    "NormGrowthProfile",
    "growth_verdict",
    "norm_growth_profile",
    "power_decay_symbol",
    "sharpness_symbol",
    "modulated_symbol",
    "table_symbol",
]

#: increment ratio below which a norm profile counts as geometric decay
CONVERGENCE_RATIO = 0.9
#: symbol samples (2R+1)^n * n_x^n allowed for one sampled quantization, and
#: 4 * (2R+1)^n for one x-independent one without ``closed_form``.  It bounds
#: the sampling time; the kept matrix, (2R+1)^2n values, is ((2R+1) / n_x)^n
#: of the samples: under an eighth in 1-D and a sixty-fourth in 2-D on the
#: automatic grid, under half per axis on any grid.
SAMPLE_LIMIT = 1 << 25
#: box sites (2R+1)^n allowed for one quantization read from ``closed_form``:
#: the boxes whose four samples per site SAMPLE_LIMIT admits, 1-D cutoffs up
#: to 4,194,303 and 2-D ones up to 1447
VALUE_LIMIT = SAMPLE_LIMIT // 4
#: samples taken and transformed at once while quantizing: one box row of
#: 2R+1 values of k, or fewer k where a row is larger.  On a 2-core VM, a
#: two-mode modulated symbol just under SAMPLE_LIMIT, time and peak RSS of
#: the quantization and its trace:
#:   1-D R=1023 (n_x 16384): 0.8-1.2 s, 240 MB (whole rows: 1.1-1.5 s, 736 MB)
#:   2-D R=10   (n_x 256):   0.5-0.7 s, 82 MB (rows of 1.4e6 samples, whole)
SAMPLE_CHUNK = 1 << 22


@dataclass
class ToroidalSymbol:
    """Pointwise-evaluable symbol sigma(x, k) with declared order.

    ``eval`` takes (x, k) with x a tuple of floats in [0,1)^dim and k an
    integer tuple, and must be deterministic and finite on sampled points.
    ``x_grid`` fixes the number of samples per coordinate for Fourier
    coefficients; when None a power-of-two grid of at least 4*(2M+1)
    points is chosen per cutoff, M = max(2R, mode_reach).
    ``x_independent`` declares that sigma does not depend on x, which is
    verified on sampled points.  ``closed_form``, when given with it, takes
    an (n, dim) int64 array of points k and returns a new complex128 array
    of the values sigma(x, k), equal to ``eval`` bit for bit; the
    quantization reads it in place of ``eval``, with nothing to verify.

    ``eval_grid``, when given, takes (n_x, ks), a sequence of integer
    tuples, and returns a new complex array of shape (len(ks),) + (n_x,)*dim
    whose entry at (i, p) is ``eval((p_1/n_x, ..., p_dim/n_x), ks[i])``,
    equal bit for bit, so that coefficients do not depend on which of the
    two sampled them; the caller may overwrite the array.  x-dependent
    symbols without ``coeffs`` are sampled through it, one box row of k per
    call, when present and point by point through ``eval`` otherwise; a
    symbol with ``coeffs`` is never sampled, so it needs none.

    ``mode_reach``, when positive, declares that sigma(., k) is a
    trigonometric polynomial whose modes theta all have |theta|_inf <=
    mode_reach; a sampled quantization sizes its grid to hold them
    unfolded.

    ``coeffs``, when given, lists the coefficients in closed form as
    ``(sites, values)``: an (n, 2*dim) int64 array of distinct sites (l, k)
    and their finite complex128 values sigma_hat(l, k), zero at every site
    not listed.  The quantization reads them as they are, without sampling.

    ``_quantized`` remembers the last quantization :func:`toroidal_matrix`
    built, as ``((n_x, R), kernel)``, so that every route of one request
    reads the same kernel.
    """

    dim: int
    order: float
    eval: Callable[[tuple, Index], complex]
    x_grid: int | None = None
    x_independent: bool = False
    label: str = ""
    eval_grid: Callable[[int, Sequence[Index]], np.ndarray] | None = field(
        default=None, repr=False, compare=False)
    mode_reach: int = 0
    coeffs: tuple | None = field(default=None, repr=False, compare=False)
    closed_form: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False)
    _quantized: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError(f"symbol dimension must be >= 1, got {self.dim}")
        if self.x_grid is not None and self.x_grid < 2:
            raise ParameterError(f"x_grid must be >= 2, got {self.x_grid}")


def _auto_grid(max_mode: int) -> int:
    """Power-of-two grid size of at least 4*(2*max_mode + 1) points."""
    needed = max(16, 4 * (2 * max(0, max_mode) + 1))
    return 1 << (needed - 1).bit_length()


def _check_alias(l: Index, n_x: int, label: str):
    mode = max((abs(x) for x in l), default=0)
    if 2 * mode >= n_x:
        raise AliasingError(
            f"mode {l} aliases on a {n_x}-point grid for symbol {label!r}; "
            f"need |l|_inf < {n_x / 2:g}"
        )


def _non_finite(s: ToroidalSymbol, x: tuple, k: Index) -> EvaluationError:
    return EvaluationError(f"symbol {s.label!r} is non-finite at (x={x}, k={k})")


def _sample_value(s: ToroidalSymbol, x: tuple, k: Index) -> complex:
    v = complex(s.eval(x, k))
    if not cmath.isfinite(v):
        raise _non_finite(s, x, k)
    return v


def _constant_value(s: ToroidalSymbol, k: Index, n_x: int) -> complex:
    """sigma(0, k) of an x-independent symbol, whose coefficient table is
    sigma(0, k) at the zero mode and zero elsewhere; the claim is verified on
    a few grid points instead of transforming a constant array."""
    base = _sample_value(s, (0.0,) * s.dim, k)
    for probe in (1, 3, 5):
        x = ((probe / n_x) % 1.0,) * s.dim
        v = _sample_value(s, x, k)
        if abs(v - base) > 1e-12 * max(1.0, abs(base)):
            raise EvaluationError(
                f"symbol {s.label!r} is declared x-independent but "
                f"sigma({x}, {k}) differs from sigma(0, {k})"
            )
    return base


def _sample_stack(s: ToroidalSymbol, n_x: int, ks: Sequence[Index]) -> np.ndarray:
    """Finite samples sigma(p / n_x, k) of an x-dependent symbol for each k
    of ``ks``, shape (len(ks),) + (n_x,)*dim; the first non-finite sample in
    C order is the one named."""
    grid = np.arange(n_x) / n_x
    if s.eval_grid is not None:
        stack = s.eval_grid(n_x, ks)
        finite = np.isfinite(stack)
        if not finite.all():
            i, *pos = np.unravel_index(int(np.argmin(finite)), finite.shape)
            raise _non_finite(s, tuple(grid[p] for p in pos), ks[i])
        return stack
    stack = np.empty((len(ks),) + (n_x,) * s.dim, dtype=np.complex128)
    for i, k in enumerate(ks):
        for pos in itertools.product(range(n_x), repeat=s.dim):
            stack[(i,) + pos] = _sample_value(s, tuple(grid[p] for p in pos), k)
    return stack


def symbol_fourier_coeff(s: ToroidalSymbol, l, k, x_grid: int | None = None) -> complex:
    """The x-Fourier coefficient sigma_hat(l, k): the listed value of a
    symbol with listed coefficients (0 where nothing is listed), else its
    uniform-grid DFT.  The grid is ``x_grid``, else the symbol's, else a
    power of two holding the modes max(|l|_inf, mode_reach) unfolded; an
    explicit grid must hold l (``AliasingError``), also where it is not
    sampled."""
    l, k = _as_index(l, s.dim), _as_index(k, s.dim)
    n_x = x_grid or s.x_grid
    if n_x is not None:
        _check_alias(l, n_x, s.label)
    if s.coeffs is not None:
        sites, values = s.coeffs
        hit = np.flatnonzero((sites == l + k).all(axis=1))
        return complex(values[hit[0]]) if len(hit) else 0.0j
    n_x = n_x or _auto_grid(max(max(abs(v) for v in l), s.mode_reach))
    if s.x_independent:
        return 0.0j if any(l) else _constant_value(s, k, n_x)
    samples = _sample_stack(s, n_x, [k])[0]
    return complex((np.fft.fftn(samples) / samples.size)[tuple(v % n_x for v in l)])


def _check_count(s: ToroidalSymbol, cutoff: int, count: int, what: str, limit: int):
    """Refuse quantizing ``s`` at ``cutoff`` from more than ``limit`` of
    ``what``, which follows the count in the message."""
    if count > limit:
        raise FeasibilityError(
            f"quantizing symbol {s.label!r} at cutoff {cutoff} needs {count} "
            f"{what}, above the guard of {limit}",
            count=count,
        )


def _listed_entries(s: ToroidalSymbol, n_x: int, cutoff: int) -> tuple:
    """(band radius b, site arrays of {(j, k): value}) of a quantization
    read from listed entries: each listed coefficient sigma_hat(l, k), or
    each value sigma(0, k) of an x-independent symbol at l = 0, is the
    entry (l + k, k), kept where k and l + k lie in the box.  b is the
    largest |l|_inf kept, so at most 2R: a mode beyond that connects no two
    box points and is dropped rather than folded.  Refused before anything
    is evaluated: an x-independent symbol read from ``closed_form`` above
    VALUE_LIMIT box sites, one without it above SAMPLE_LIMIT samples, its
    value at x = 0 and three probes per k (:func:`_constant_value`); a
    listed one when the box side passes int64 (:func:`lattice._sized_side`)."""
    if s.coeffs is None:
        sites = (2 * cutoff + 1) ** s.dim
        if s.closed_form is None:
            _check_count(s, cutoff, 4 * sites, "samples, four per box site", SAMPLE_LIMIT)
            ks = _box_points(s.dim, cutoff)
            values = np.array([_constant_value(s, k, n_x) for k in iter_box(s.dim, cutoff)],
                              dtype=np.complex128)
        else:
            _check_count(s, cutoff, sites, "box sites", VALUE_LIMIT)
            ks = _box_points(s.dim, cutoff)
            values = s.closed_form(ks)
            finite = np.isfinite(values)
            if not finite.all():  # the first in box order, as eval meets it
                raise _non_finite(s, (0.0,) * s.dim, tuple(ks[int(np.argmin(finite))].tolist()))
        points = np.hstack((ks, ks))
        return 0, points, _sup_norms(points), values
    _sized_side(s.dim, cutoff)
    sites, values = s.coeffs
    ls, ks = sites[:, :s.dim], sites[:, s.dim:]
    # filter before adding: l + k may overflow int64 at far sites
    near = (_sup_norms(ls) <= 2 * cutoff) & (_sup_norms(ks) <= cutoff)
    ls, ks, values = ls[near], ks[near], values[near]
    js = ls + ks
    inside = _sup_norms(js) <= cutoff
    ls, js, ks, values = ls[inside], js[inside], ks[inside], values[inside]
    points = np.hstack((js, ks))
    return int(_sup_norms(ls).max(initial=0)), points, _sup_norms(points), values


def _sampled_matrix(s: ToroidalSymbol, n_x: int, cutoff: int) -> np.ndarray:
    """The quantization A[j, k] = sigma_hat(j - k, k) of the box |.| <= R
    from grid samples, rows and columns lexicographic; refused before
    anything is sampled when it needs more than SAMPLE_LIMIT samples.  The
    matrix is read-only.

    The symbol is sampled in runs of consecutive k: one box row, the 2R+1 k
    that share all but the last coordinate, or where a row holds more than
    SAMPLE_CHUNK samples as many k as fit in that many.  Each run is
    transformed by one batched FFT in place, and the column of each k
    gathers its modes (j - k) mod n_x.  Every entry equals the one of the
    full per-k table ``np.fft.fftn(samples) / samples.size`` bit for bit.
    """
    _check_count(s, cutoff, (2 * cutoff + 1) ** s.dim * n_x ** s.dim,
                 f"samples on a {n_x}-point grid per axis", SAMPLE_LIMIT)
    ks = list(iter_box(s.dim, cutoff))
    points = _box_points(s.dim, cutoff)
    axes = tuple(range(1, s.dim + 1))
    matrix = np.empty((len(ks), len(ks)), dtype=np.complex128)
    step = min(2 * cutoff + 1, max(1, SAMPLE_CHUNK // n_x ** s.dim))
    for start in range(0, len(ks), step):
        stack = _sample_stack(s, n_x, ks[start:start + step])
        np.fft.fftn(stack, axes=axes, out=stack)
        run = slice(start, start + len(stack))
        modes = 0  # [j, k]: the flat FFT index of (j - k) mod n_x
        for a in range(s.dim):
            modes = modes * n_x + (points[:, None, a] - points[None, run, a]) % n_x
        matrix[:, run] = stack.reshape(len(stack), -1)[np.arange(len(stack)), modes]
    matrix /= n_x ** s.dim
    matrix.flags.writeable = False
    return matrix


def _matrix_kernel(matrix: np.ndarray, dim: int, cutoff: int, label: str) -> LatticeKernel:
    """The kernel of a side x side matrix of the box |.| <= R, rows and
    columns lexicographic, that vanishes outside that box."""
    width = 2 * cutoff + 1

    def eval_fn(j: Index, m: Index) -> complex:
        row = col = 0
        for a, b in zip(j, m):
            if not (-cutoff <= a <= cutoff and -cutoff <= b <= cutoff):
                return 0.0j
            row = row * width + a + cutoff
            col = col * width + b + cutoff
        return matrix.item(row, col)

    def support_arrays(r):
        if r == cutoff:
            return matrix
        # the box min(r, cutoff) at its positions in the box r, every pair
        points = _box_points(dim, min(r, cutoff))
        at, pos = _positions(points, cutoff), _positions(points, r)
        return (np.repeat(pos, len(pos)), np.tile(pos, len(pos)),
                matrix[np.ix_(at, at)].ravel())

    return LatticeKernel(dim, eval_fn, band_radius=2 * cutoff,
                         support_arrays=support_arrays, label=label)


def toroidal_matrix(s: ToroidalSymbol, cutoff: int) -> LatticeKernel:
    """Quantization matrix A[j, k] = sigma_hat(j - k, k) on the box |.| <= R,
    packaged as a lattice kernel that vanishes outside that box.

    A symbol with listed coefficients, or an x-independent one, is its
    listed entries (:func:`_listed_entries`) as a table kernel, with band
    radius their largest |l|_inf (0 when x-independent).  Any other symbol
    is sampled into the dense side x side matrix (:func:`_sampled_matrix`):
    ``eval`` is one lookup, and
    ``support_arrays`` hands the matrix itself over at R (every pair of the
    box at another cutoff).  The symbol remembers the last kernel built
    (``_quantized``), so a second call at the same grid and cutoff returns
    it, with its stored truncation.  The grid, ``x_grid`` or the automatic
    one, must hold the modes max(2R, mode_reach) unfolded
    (``AliasingError``), also where nothing is sampled."""
    if cutoff < 1:
        raise ParameterError(f"cutoff must be >= 1, got {cutoff}")
    mode = max(2 * cutoff, s.mode_reach)
    n_x = s.x_grid or _auto_grid(mode)
    _check_alias((mode,) * s.dim, n_x, s.label)
    held = s._quantized  # read once: another thread may replace it
    if held is not None and held[0] == (n_x, cutoff):
        return held[1]
    label = f"quantized:{s.label}" if s.label else "quantized"
    if s.coeffs is not None or s.x_independent:
        reach, *sites = _listed_entries(s, n_x, cutoff)
        kernel = _table_sites(*sites, s.dim, label, band_radius=reach)
    else:
        kernel = _matrix_kernel(_sampled_matrix(s, n_x, cutoff), s.dim, cutoff, label)
    s._quantized = ((n_x, cutoff), kernel)
    return kernel


def poincare_norm(k: LatticeKernel, cutoff: int) -> float:
    """Summed-entry norm sum_{|j|,|m| <= R} |K(j, m)|.

    This is the p = 1 case of :func:`specdet.lattice.nuclear_norm_estimate`
    and is monotone nondecreasing in the cutoff.
    """
    return nuclear_norm_estimate(k, 1.0, cutoff)


def schur_bound(k: LatticeKernel, p: float, cutoff: int) -> float:
    """Operator-norm bound from the discrete Schur test on the box:
    (max column sum)^(1/p) * (max row sum)^(1 - 1/p), rows indexed by the
    output variable of K(row, col)."""
    if not (1.0 <= p):
        raise ParameterError(f"p must lie in [1, inf], got {p}")
    max_row = max(_modulus_sums(k, cutoff, axis=1).tolist(), default=0.0)
    max_col = max(_modulus_sums(k, cutoff, axis=0).tolist(), default=0.0)
    if math.isinf(p):
        return max_row
    inv_p = 1.0 / p
    return max_col ** inv_p * max_row ** (1.0 - inv_p)


def toroidal_determinant(s: ToroidalSymbol, lam: complex, order: int = 30,
                         cutoff: int = 8, tol: float = 1e-10) -> DetResult:
    """Determinant series applied to the quantization matrix of the symbol."""
    result = lattice_determinant(toroidal_matrix(s, cutoff), lam,
                                 order=order, cutoff=cutoff, tol=tol)
    if s.order >= -s.dim:
        result.diagnostics.setdefault("warnings", []).append(
            f"symbol order {s.order:g} is not below -{s.dim}; the summed-entry "
            f"norm may diverge as the cutoff grows"
        )
    return result


@dataclass
class NormGrowthProfile:
    """Norm partial sums across cutoffs with a growth verdict."""

    points: list  # (cutoff, norm) pairs
    increments: list
    verdict: str  # "converging" or "diverging/inconclusive"


def growth_verdict(points: Sequence[tuple]) -> NormGrowthProfile:
    """Classify a monotone norm profile by its increment ratios.

    "converging" when successive increments decay geometrically (every
    ratio below ``CONVERGENCE_RATIO``, or all increments negligible),
    "diverging/inconclusive" otherwise.  A profile with fewer than three
    cutoffs cannot exhibit a ratio and is inconclusive unless flat, and
    only increments can be flat: a one-cutoff profile is inconclusive.
    """
    points = [(int(r), float(v)) for r, v in points]
    if not points:
        raise ParameterError("profile must contain at least one point")
    increments = [b[1] - a[1] for a, b in zip(points, points[1:])]
    scale = max(1.0, points[-1][1])
    flat = bool(increments) and all(abs(inc) <= 1e-14 * scale for inc in increments)
    if flat:
        verdict = "converging"
    elif len(increments) >= 2:
        ratios = []
        for prev, cur in zip(increments, increments[1:]):
            if abs(prev) <= 1e-14 * scale:
                ratios.append(0.0 if abs(cur) <= 1e-14 * scale else math.inf)
            else:
                ratios.append(abs(cur) / abs(prev))
        verdict = "converging" if all(r < CONVERGENCE_RATIO for r in ratios) \
            else "diverging/inconclusive"
    else:
        verdict = "diverging/inconclusive"
    return NormGrowthProfile(points=points, increments=increments, verdict=verdict)


def norm_growth_profile(s: ToroidalSymbol, cutoffs: Sequence[int]) -> NormGrowthProfile:
    """Poincare-norm partial sums of the quantization across ascending
    cutoffs, classified by :func:`growth_verdict`."""
    cutoffs = [int(r) for r in cutoffs]
    if not cutoffs:
        raise ParameterError("cutoff list must be nonempty")
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])) or cutoffs[0] < 1:
        raise ParameterError(f"cutoffs must be ascending and >= 1, got {cutoffs}")
    points = []
    for r in cutoffs:
        points.append((r, poincare_norm(toroidal_matrix(s, r), r)))
    return growth_verdict(points)


# ---------------------------------------------------------------------------
# Built-in symbol families
# ---------------------------------------------------------------------------

def _k_norm_sq(k: Index) -> float:
    return float(sum(x * x for x in k))


# The closed forms of the x-independent families replay eval on the rows of
# the box's int64 points: |k|^2 is summed exactly in int64 and rounded to
# float64 once, as float(sum) rounds it, and each site takes one Python pow,
# libm's as in eval, since np.power differs from it in the last bit.

def _norm_sqs(ks: np.ndarray) -> np.ndarray:
    """_k_norm_sq of each row of an int64 array of points."""
    return (ks * ks).sum(axis=1).astype(np.float64)


def _pows(bases: np.ndarray, exponent) -> np.ndarray:
    """bases[i] ** exponent, one Python pow each."""
    return np.fromiter(map(pow, bases.tolist(), itertools.repeat(exponent)),
                       dtype=np.float64, count=len(bases))


# The grid sampler of modulated_symbol replays its scalar evaluator's
# arithmetic on whole arrays, one IEEE operation per step, so its samples
# equal ``eval`` bit for bit; its complex products are lattice._mul.  The
# waves use real np.cos/np.sin and so rely on numpy taking float64 cos/sin
# from the C library, as cmath.exp does; the bitwise test in
# tests/test_toroidal.py checks this.  Complex np.exp has its own code
# path and need not agree with cmath.exp in the last bit.

def _grid_wave(n_x: int, dim: int, theta: Index):
    """(real, imag) samples of e^{2*pi*i*x.theta} on the n_x^dim grid, each
    the value ``cmath.exp`` gives the scalar evaluators."""
    grid = np.arange(n_x) / n_x
    phase = np.zeros((n_x,) * dim)  # sum() starts from 0
    for axis, t in enumerate(theta):
        phase = phase + grid.reshape((n_x,) + (1,) * (dim - 1 - axis)) * t
    # the argument (2j * math.pi) * phase is (+-0.0, 0.0 + 2*pi*phase), so
    # cmath.exp returns (1.0 * cos(y), 1.0 * sin(y)); phase is never -0.0
    y = (2 * math.pi) * phase
    return np.cos(y), np.sin(y)


def _wave_sum(n_x: int, dim: int, terms):
    """sum_theta c_theta e^{2*pi*i*x.theta} accumulated from 0.0j in the
    order of ``terms``, a sequence of (theta, c) pairs."""
    acc_re = acc_im = np.zeros((n_x,) * dim)
    for theta, c in terms:
        p_re, p_im = _mul(c.real, c.imag, *_grid_wave(n_x, dim, theta))
        acc_re, acc_im = acc_re + p_re, acc_im + p_im
    return acc_re, acc_im


def _point_sum(x: tuple, terms) -> complex:
    """sum_theta c_theta e^{2*pi*i*x.theta} at the one point x, accumulated
    from 0.0j in the order of ``terms``: the scalar twin of _wave_sum."""
    acc = 0.0j
    for theta, c in terms:
        acc += c * cmath.exp(2j * math.pi * sum(xi * ti for xi, ti in zip(x, theta)))
    return acc


def power_decay_symbol(order: float, dim: int = 1, amplitude: complex = 1.0,
                       label: str = "") -> ToroidalSymbol:
    """x-independent symbol c * (1 + |k|^2)^(order/2)."""
    amplitude = complex(amplitude)

    def eval_fn(x, k):
        return amplitude * (1.0 + _k_norm_sq(k)) ** (order / 2.0)

    def closed_form(ks):
        g = _pows(1.0 + _norm_sqs(ks), order / 2.0)
        out = np.empty(len(ks), dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):  # eval's amplitude * g
            out.real, out.imag = _mul(amplitude.real, amplitude.imag, g, 0.0)
        return out

    return ToroidalSymbol(dim, order, eval_fn, x_independent=True,
                          label=label or f"power-decay({order:g})", closed_form=closed_form)


def sharpness_symbol(dim: int = 1, label: str = "") -> ToroidalSymbol:
    """The borderline symbol (1 + |k|)^(-dim) whose summed-entry norm
    diverges like the harmonic series; of every order >= -dim."""

    def eval_fn(x, k):
        return (1.0 + math.sqrt(_k_norm_sq(k))) ** (-dim) + 0.0j

    def closed_form(ks):
        return _pows(1.0 + np.sqrt(_norm_sqs(ks)), -dim).astype(np.complex128)

    return ToroidalSymbol(dim, float(-dim), eval_fn, x_independent=True,
                          label=label or "sharpness", closed_form=closed_form)


def modulated_symbol(modes, decay_order: float, dim: int = 1,
                     amplitude: complex = 1.0, label: str = "") -> ToroidalSymbol:
    """Trigonometric polynomial in x times a power decay in k:
    sigma(x, k) = (sum_theta c_theta e^{2*pi*i*x.theta}) * c*(1+|k|^2)^(nu/2)."""
    amplitude = complex(amplitude)
    mode_table = {_as_index(theta, dim): complex(c) for theta, c in dict(modes).items()}
    x_indep = all(all(t == 0 for t in theta) for theta in mode_table)
    # the phases x.theta are floats: a mode beyond the float range fails
    # here (OverflowError) rather than sizing an unbounded grid
    reach = max((abs(t) for theta in mode_table for t in theta), default=0)
    float(reach)

    def eval_fn(x, k):
        osc = _point_sum(x, mode_table.items())
        return osc * amplitude * (1.0 + _k_norm_sq(k)) ** (decay_order / 2.0)

    x_part = None  # the last grid sampled: (n_x, osc(x) * amplitude on it)

    def eval_grid(n_x, ks):
        nonlocal x_part
        with np.errstate(over="ignore", invalid="ignore"):
            held = x_part  # read once: another thread may replace it
            if held is None or held[0] != n_x:
                osc = _wave_sum(n_x, dim, mode_table.items())
                held = x_part = n_x, _mul(*osc, amplitude.real, amplitude.imag)
            x_re, x_im = held[1]
            # one Python ** per k, as in eval, broadcast against the x-part
            g = np.array([(1.0 + _k_norm_sq(k)) ** (decay_order / 2.0) for k in ks])
            g = g.reshape((len(ks),) + (1,) * dim)
            out = np.empty(g.shape[:1] + x_re.shape, dtype=np.complex128)
            # _mul(x_re, x_im, g, 0.0), computed in the halves of out so
            # that no temporary is the size of the sample stack
            re, im = out.real, out.imag
            np.subtract(np.multiply(x_re, g, out=re), x_im * 0.0, out=re)
            np.add(x_re * 0.0, np.multiply(x_im, g, out=im), out=im)
            return out

    return ToroidalSymbol(dim, decay_order, eval_fn, x_independent=x_indep,
                          label=label or "modulated", eval_grid=eval_grid,
                          mode_reach=reach)


def _listed_symbol(sites: np.ndarray, values: np.ndarray, dim: int, order: float,
                   label: str) -> ToroidalSymbol:
    """:func:`table_symbol` of the sorted site arrays (l, k) of its coefficients."""
    label = label or "coefficient-table"
    finite = np.isfinite(values)
    if not finite.all():
        bad = sites[int(np.argmin(finite))].tolist()
        raise EvaluationError(f"symbol {label!r} has a non-finite coefficient at "
                              f"(l={tuple(bad[:dim])}, k={tuple(bad[dim:])})")

    by_k = None  # k -> [(l, sigma_hat(l, k))] in site order, built on the first call

    def eval_fn(x, k):
        nonlocal by_k
        if by_k is None:
            terms = {}
            for l, key, v in zip(map(tuple, sites[:, :dim].tolist()),
                                 map(tuple, sites[:, dim:].tolist()), values.tolist()):
                terms.setdefault(key, []).append((l, v))
            by_k = terms
        return _point_sum(x, by_k.get(k, ()))

    return ToroidalSymbol(dim, order, eval_fn, x_independent=not sites[:, :dim].any(),
                          label=label, coeffs=(sites, values))


def table_symbol(entries, dim: int = 1, order: float = 0.0,
                 label: str = "") -> ToroidalSymbol:
    """Symbol with explicitly listed Fourier coefficients sigma_hat(l, k);
    evaluates as the trig polynomial sum_l sigma_hat(l, k) e^{2*pi*i*x.l},
    adding the terms of each k in ascending l, and is quantized from the
    list itself (``coeffs``).  Indices must fit int64 and values must be
    finite."""
    table = {(_as_index(l, dim), _as_index(k, dim)): complex(v)
             for (l, k), v in dict(entries).items()}
    sites, _, values = _site_arrays(table, 2 * dim)
    return _listed_symbol(sites, values, dim, order, label)
