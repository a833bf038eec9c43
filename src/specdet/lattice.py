"""Operators on l^p(Z^n) given by a discrete kernel K(j, m).

A :class:`LatticeKernel` is an evaluation rule on Z^n x Z^n.  All partial
sums run over the sup-norm box |.|_inf <= R in lexicographic index order, so
they are exactly enumerable, trivially nestable in R, and deterministic.
Unbounded-support kernels are legal: results are then relative to the chosen
cutoff, with the series tail reported rather than hidden.

Each truncation is held in one form, diagonal, band, sparse or dense by its
structure, and its trace powers Tr(T^m) are computed from powers in that
form; the literal m-fold cycle sums live in :mod:`specdet.oracle` and are
kept as cross-checks only, since nested sums cost N^m.

Everything is a pure function of immutable inputs, and every sum is taken
in lexicographic order, so results are bitwise deterministic.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .errors import EvaluationError, FeasibilityError, ParameterError
from .plemelj import DetResult, TracePowerSource, _check_series, plemelj_det

__all__ = [
    "Index",
    "LatticeKernel",
    "iter_box",
    "box_side",
    "nuclear_norm_estimate",
    "lattice_trace",
    "truncation_trace_source",
    "cycle_trace",
    "lattice_determinant",
    "diagonal_kernel",
    "diagonal_kernel_from_rule",
    "rank_one_kernel",
    "banded_kernel",
    "table_kernel",
    "poincare_strict_kernel",
]

Index = tuple  # tuple[int, ...] of length dim

#: largest truncation side handled densely before structure is required
DENSE_SIDE_LIMIT = 2048
#: smallest truncation side that may take the band or sparse path.  On a
#: 2-core x86-64 VM (numpy 2.4.6, scipy 1.17.1) one product of the 15th power of a
#: tridiagonal truncation took 8.3 ms dense and 0.42 ms sparse at side 381,
#: 0.51 and 0.22 ms at side 128, and 0.12 and 0.20 ms at side 64: the
#: crossover lies near side 100, below which scipy's per-product overhead
#: (about 0.1-0.2 ms) loses
SPARSE_SIDE_MIN = 128
#: above SPARSE_SIDE_MIN, sparse when nnz <= side^2 / SPARSE_FILL_DIVISOR.
#: Same machine, 30 orders of a complex Toeplitz band of half-width b, so the
#: fill-in of T^m (band m*b) is included; sparse chain against dense chain,
#: with side^2/nnz in brackets:
#:   side  128: b=1 [43] 6.2 vs 8.3 ms,  b=2 [26] 10.4 vs 8.3 ms
#:   side  256: b=4 [29] 42 vs 78 ms,    b=8 [15] 122 vs 78 ms
#:   side  512: b=8 [30] 0.30 vs 0.43 s, b=16 [16] 0.78 vs 0.43 s
#:   side 1024: b=16 [31] 1.6 vs 2.1 s,  b=32 [16] 5.5 vs 2.1 s
#:   side 2048: b=32 [32] 12.7 vs 23 s,  b=64 [16] over 34 vs 23 s
#: Sparse won at every ratio from 28 up and lost at every ratio up to 26; a
#: full rank-one truncation (ratio 1) ran 28-40 times slower sparse at sides
#: 129-513.
#: The same divisor bounds the band path: band when the diagonals of the
#: entries span at most 1/SPARSE_FILL_DIVISOR of their occupied positions.
#: Same machine, 30 orders of a complex Toeplitz band of half-width b at the
#: boundary (span * 32 / positions in brackets), band chain (one einsum
#: per product) against CSR chain against dense chain:
#:   side  129: b=1  [0.74] 0.6 vs 4.8 vs 7.7 ms,   b=2  [1.24] 1.6 vs 5.5 vs 6.0 ms
#:   side  257: b=3  [0.87] 4.2 vs 24 vs 38 ms,     b=4  [1.12] 6.6 vs 33 vs 48 ms
#:   side  513: b=7  [0.94] 35 vs 199 vs 335 ms,    b=8  [1.06] 47 vs 183 vs 307 ms
#:   side 1025: b=15 [0.97] 0.35 vs 1.1 vs 3.0 s,   b=16 [1.03] 0.42 vs 2.0 vs 3.3 s
#:   side 2049: b=31 [0.98] 2.9 vs 9.8 s,           b=32 [1.02] 3.3 vs 12.6 s
#: (no dense chain at side 2049).  Band wins by 3-8 times over CSR on both
#: sides of the boundary; the boundary stays because at span n/32 the band
#: storage of T^15 already covers about half the square, and at n/16 all of it
SPARSE_FILL_DIVISOR = 32
#: kernel evaluations allowed for one entry walk of a kernel without
#: support arrays: every pair of a box DENSE_SIDE_LIMIT wide
BRUTE_PAIR_LIMIT = DENSE_SIDE_LIMIT ** 2


def iter_box(dim: int, cutoff: int) -> Iterator[Index]:
    """Lexicographic walk of the box |.|_inf <= cutoff in Z^dim."""
    return itertools.product(range(-cutoff, cutoff + 1), repeat=dim)


def box_side(dim: int, cutoff: int) -> int:
    return (2 * cutoff + 1) ** dim


def _sized_side(dim: int, cutoff: int) -> int:
    """The box side, refused above the largest int64: the type of the
    positions that ``support_arrays`` hand over."""
    side = box_side(dim, cutoff)
    if side > np.iinfo(np.int64).max:
        raise FeasibilityError(f"the box of cutoff {cutoff} has side {side}, "
                               f"whose positions do not fit int64", count=side)
    return side


@dataclass
class LatticeKernel:
    """Complex kernel on Z^dim x Z^dim with declared structure.

    ``eval`` maps a pair of length-``dim`` integer tuples to a complex
    value and must be deterministic; it is not called while the kernel is
    built.  ``band_radius`` promises the kernel vanishes for
    |j - m|_inf > b; the walk and the mode choice read it.

    ``support_arrays``, when given, maps a cutoff R to ``(rows, cols,
    vals)``: int64 lexicographic positions in the box |.|_inf <= R and
    complex128 values, equal to ``eval`` bit for bit, of every entry that
    may be nonzero there, each at most once (explicit zeros are allowed;
    every omitted entry is zero); or to the whole box as one side x side
    complex128 matrix, every entry counted as present.  It unlocks norm and
    trace computations at cutoffs far beyond dense enumeration: their cost
    follows the entries, not the box.  Without them, the entries are read
    by one ``eval`` per pair of the box within the band radius (every pair
    when no band is declared), at most ``BRUTE_PAIR_LIMIT`` pairs.  Either
    way a kernel is read into one stored form (:func:`_truncation`), shared
    by the norm estimate, the trace, the Schur bound and the trace powers
    at that cutoff.  ``_truncated`` remembers the last one built, as
    ``(cutoff, (mode, entries, matrix))``, so that every route of one
    request reads the same truncation; a read at another cutoff replaces it.
    """

    dim: int
    eval: Callable[[Index, Index], complex]
    band_radius: int | None = None
    support_arrays: Callable[[int], tuple | np.ndarray] | None = None
    label: str = ""
    _truncated: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError(f"kernel dimension must be >= 1, got {self.dim}")

    def value(self, j: Index, m: Index) -> complex:
        v = complex(self.eval(j, m))
        if not cmath.isfinite(v):
            raise EvaluationError(
                f"kernel {self.label!r} is non-finite at (j={j}, m={m})"
            )
        return v


def _box_points(dim: int, cutoff: int) -> np.ndarray:
    """The box |.|_inf <= cutoff as a (side, dim) int64 array, lexicographic."""
    return np.indices((2 * cutoff + 1,) * dim, dtype=np.int64).reshape(dim, -1).T - cutoff


def _positions(points: np.ndarray, cutoff: int) -> np.ndarray:
    """Lexicographic positions in the box |.|_inf <= cutoff of the rows of
    an (n, dim) array of points inside it."""
    pos = points[:, 0] + cutoff
    for axis in range(1, points.shape[1]):
        pos = pos * (2 * cutoff + 1) + (points[:, axis] + cutoff)
    return pos


def _point(position: int, dim: int, cutoff: int) -> Index:
    coords = np.unravel_index(position, (2 * cutoff + 1,) * dim)
    return tuple(int(x) - cutoff for x in coords)


def _nonzero(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> tuple:
    keep = vals != 0  # non-finite values are kept for the finiteness check
    return rows[keep], cols[keep], vals[keep]


def _require_finite(k: LatticeKernel, cutoff: int, rows, cols, vals):
    """Refuse non-finite ``vals``, naming the first in (row, col) order;
    ``rows`` and ``cols`` are None when ``vals`` is the matrix of the box."""
    finite = np.isfinite(vals)
    if not finite.all():
        bad = int(np.argmin(finite))  # first non-finite entry in (row, col) order
        row, col = divmod(bad, len(vals)) if rows is None else (rows[bad], cols[bad])
        raise EvaluationError(
            f"kernel {k.label!r} is non-finite at "
            f"(j={_point(row, k.dim, cutoff)}, m={_point(col, k.dim, cutoff)})"
        )


def _box_pairs(r: int, shifts: np.ndarray, cutoff: int) -> tuple:
    """The pairs (j, j + s) of the box |.|_inf <= r, j lexicographic and then
    s in the order of the rows of ``shifts``: their lexicographic positions in
    the box |.|_inf <= cutoff and the index of each one's shift."""
    dim = shifts.shape[1]
    j = _box_points(dim, r)
    # masked axis by axis from each coordinate's (2r+1) x shifts table, so
    # that no j + s is formed for a pair outside the box
    inside = np.ones((len(j), len(shifts)), dtype=bool)
    coords = np.arange(-r, r + 1)[:, None]
    for axis in range(dim):
        fits = np.abs(coords + shifts[:, axis]) <= r
        inside &= fits[j[:, axis] + r]
    at, shift = np.nonzero(inside)
    rows = _positions(j, cutoff)[at]
    # a position is linear in the point, so j + s lies s's offset past j
    offsets = shifts[:, 0]
    for axis in range(1, dim):
        offsets = offsets * (2 * cutoff + 1) + shifts[:, axis]
    return rows, rows + offsets[shift], shift


def _walk(k: LatticeKernel, cutoff: int, band: int):
    """Entries of the pairs (j, m) of the box with |j - m|_inf <= band, one
    ``eval`` each in lexicographic order, ranges clipped to the box: the nonzero
    ``(rows, cols, vals)``, or the side x side matrix when a band of 2R or more
    walks every pair.  Refused before any ``eval`` above BRUTE_PAIR_LIMIT pairs."""
    if cutoff < 1:
        raise ParameterError(f"cutoff must be >= 1, got {cutoff}")
    b = min(band, 2 * cutoff)
    count = ((2 * cutoff + 1) * (2 * b + 1) - b * (b + 1)) ** k.dim
    if count > BRUTE_PAIR_LIMIT:
        raise FeasibilityError(f"walking kernel {k.label!r} at cutoff {cutoff} needs {count} "
                               f"kernel evaluations, above the guard of {BRUTE_PAIR_LIMIT}; "
                               f"declare support_arrays to go further", count=count)
    vals = np.fromiter(
        (complex(k.eval(j, m)) for j in iter_box(k.dim, cutoff)
         for m in itertools.product(*(range(max(-cutoff, x - b), min(cutoff, x + b) + 1)
                                      for x in j))),
        dtype=np.complex128, count=count)
    if b == 2 * cutoff:
        return vals.reshape(box_side(k.dim, cutoff), -1)
    rows, cols, _ = _box_pairs(cutoff, _box_points(k.dim, b), cutoff)
    return _nonzero(rows, cols, vals)


def _band_span(rows: np.ndarray, cols: np.ndarray) -> tuple | None:
    """``(first, n, lo, hi)`` of entries sorted by (row, col): their positions
    first..first + n - 1 and least and greatest offset col - row; None when
    none or their diagonals span over 1/SPARSE_FILL_DIVISOR of the positions."""
    if not len(rows):
        return None
    first = min(rows[0], cols.min())
    n = int(max(rows[-1], cols.max()) - first) + 1
    if len(rows) * SPARSE_FILL_DIVISOR > n * n:  # no band that narrow holds them
        return None
    d = cols - rows
    lo, hi = int(d.min()), int(d.max())
    return None if (hi - lo + 1) * SPARSE_FILL_DIVISOR > n else (first, n, lo, hi)


def _mode(k: LatticeKernel, side: int, count: int, span: Callable[[], tuple | None]) -> str:
    """The trace-power path of a truncation of ``count`` entries: ``diag``
    for band radius 0; at sides from SPARSE_SIDE_MIN, ``band`` in 1-D when
    ``span()``, their ``_band_span``, exists, else ``sparse``, if they fill
    at most 1/SPARSE_FILL_DIVISOR of the box; ``dense`` for the rest up to
    DENSE_SIDE_LIMIT, and ``refused`` above it."""
    if k.band_radius == 0:
        return "diag"
    if side >= SPARSE_SIDE_MIN and count * SPARSE_FILL_DIVISOR <= side * side:
        # one dimension only: a box's rows of length s put a 2-D stencil's
        # diagonals s apart, so its band storage would be mostly empty
        return "band" if k.dim == 1 and span() is not None else "sparse"
    return "refused" if side > DENSE_SIDE_LIMIT else "dense"


def _truncation(k: LatticeKernel, cutoff: int, every_entry: bool = True) -> tuple:
    """``(mode, entries, matrix)`` of the box truncation, from
    ``support_arrays`` or else ``_walk`` over the band (the whole box when
    none is declared), checked finite and kept on the kernel, read-only, as
    its one remembered truncation (``_truncated``), in the one form its
    mode reads: ``entries`` (rows, cols, vals) sorted by (row, col) for
    ``diag``, ``band`` and ``sparse``; the side x side ``matrix`` alone for
    ``dense``; the given form for ``refused``, whose trace alone is read:
    readers of ``every_entry`` (norm, Schur bound, trace powers) are
    refused.  The values or the matrix are float64 when no entry has a
    nonzero imaginary part, else complex128 (:func:`_real_if_real`): the
    arithmetic of the trace powers, which read them as they are stored."""
    if cutoff < 1:
        raise ParameterError(f"cutoff must be >= 1, got {cutoff}")
    side = _sized_side(k.dim, cutoff)
    held = k._truncated  # read once: another thread may replace it
    if held is None or held[0] != cutoff:
        if k.support_arrays is not None:
            given = k.support_arrays(cutoff)
        else:
            band = k.band_radius
            given = _walk(k, cutoff, 2 * cutoff if band is None else band)
        mode = entries = None
        if isinstance(given, np.ndarray):  # the whole box, row by row
            matrix = np.asarray(given, dtype=np.complex128)
            _require_finite(k, cutoff, None, None, matrix)
            # support_arrays hand over every entry of the box, a walk its nonzeros
            count = matrix.size if k.support_arrays is not None else np.count_nonzero(matrix)
            mode = _mode(k, side, count, lambda: None)  # a band is told from the entries
            if mode in ("dense", "refused"):
                matrix = _real_if_real(matrix)
            else:
                flat, mode = np.flatnonzero(matrix), None
                given = (*np.divmod(flat, side), matrix.reshape(-1)[flat])
        if mode is None:
            rows, cols, vals = (np.asarray(a, dtype=t) for a, t in
                                zip(given, (np.int64, np.int64, np.complex128)))
            # compared pairwise: a key row * side + col overflows int64 on wide boxes
            unsorted = (rows[1:] < rows[:-1]) | ((rows[1:] == rows[:-1]) & (cols[1:] <= cols[:-1]))
            if unsorted.any():
                order = np.lexsort((cols, rows))
                rows, cols, vals = rows[order], cols[order], vals[order]
            _require_finite(k, cutoff, rows, cols, vals)
            vals = _real_if_real(vals)
            mode = _mode(k, side, len(vals), lambda: _band_span(rows, cols))
            if mode == "dense":
                matrix = np.zeros((side, side), dtype=vals.dtype)
                matrix[rows, cols] = vals
            else:
                entries, matrix = (rows, cols, vals), None
        for a in entries or (matrix,):
            a.flags.writeable = False
        held = k._truncated = cutoff, (mode, entries, matrix)
    mode, entries, matrix = truncation = held[1]
    if every_entry and mode == "refused":
        count = side ** 2 if entries is None else len(entries[2])
        raise FeasibilityError(f"truncation side {side} exceeds the dense limit "
                               f"{DENSE_SIDE_LIMIT} and its {count} entries are neither "
                               f"diagonal, narrowly banded nor sparse", count=side)
    return truncation


def _modulus_sums(k: LatticeKernel, cutoff: int, p: float = 1.0, axis: int = 1) -> np.ndarray:
    """Sums of |K(j, m)|^p along each row (axis 1) or column (axis 0) of the
    truncation, added in index order as a Python walk adds them: every line
    of a dense one, else only the lines holding entries (an empty line adds +0.0)."""
    _, entries, matrix = _truncation(k, cutoff)
    vals = matrix if entries is None else entries[2]
    mods = np.hypot(vals.real, vals.imag)  # abs() of a Python complex, bit for bit
    mods **= p
    if entries is None:
        return np.cumsum(mods, axis=axis, out=mods).take(-1, axis=axis)
    lines, cols, _ = entries
    if axis == 0:  # a stable sort by column keeps each column in ascending row
        by_col = np.argsort(cols, kind="stable")
        lines, mods = cols[by_col], mods[by_col]
    index = np.zeros(len(lines), dtype=np.intp)
    index[1:] = np.cumsum(lines[1:] != lines[:-1])
    return np.bincount(index, weights=mods)


def _running_sum(*parts):
    """Left-to-right sum from zero of the values of ``parts`` in turn, as a
    Python accumulation loop forms it; a sum past the float range is inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cumsum(np.concatenate(([0], *parts)))[-1].item()


def nuclear_norm_estimate(k: LatticeKernel, p: float = 1.0, cutoff: int = 8) -> float:
    """Partial sum of sum_j (sum_m |K(j,m)|^p)^(1/p) over the box |.| <= R.

    Finiteness of the full sum is the standard sufficient condition for the
    kernel to define a nuclear operator on l^p; the partial sums are
    monotone nondecreasing in the cutoff, so growth across cutoffs is the
    divergence diagnostic.
    """
    if not (1.0 <= p < math.inf):
        raise ParameterError(f"p must lie in [1, inf), got {p}")
    return float(_running_sum(_modulus_sums(k, cutoff, p) ** (1.0 / p)))


def lattice_trace(k: LatticeKernel, cutoff: int) -> complex:
    """Diagonal sum sum_{|n| <= R} K(n, n) in index-ascending order."""
    if k.support_arrays is None and k.band_radius is None:
        # the diagonal alone: side evaluations, not the side^2 of the box
        rows, cols, vals = _walk(k, cutoff, 0)
        _require_finite(k, cutoff, rows, cols, vals)
        return complex(_running_sum(vals))
    _, entries, matrix = _truncation(k, cutoff, every_entry=False)
    diagonal = matrix.diagonal() if entries is None else entries[2][entries[0] == entries[1]]
    return complex(_running_sum(diagonal))


def _real_if_real(vals: np.ndarray) -> np.ndarray:
    """Complex values as a new float64 array when no imaginary part is
    nonzero, else themselves: the stored form of real trace powers, whose
    products take a quarter of the multiplies.  An elementwise real product
    is the real part of the complex one bit for bit; a matrix product (dgemm
    against zgemm) may differ from it in the last bits."""
    return vals if vals.imag.any() else np.ascontiguousarray(vals.real)


class _Band:
    """A matrix on positions 0..n-1 that vanishes off the diagonals
    ``lo <= o <= hi``, stored by diagonals in one zero buffer ``buf`` of
    ``dtype`` with two views of it: ``rows[o - lo, i]`` is the entry
    (i, i + o) and ``cols[o - lo, k]`` the entry (k - o, k), zero where the
    other index leaves 0..n-1.  ``cols`` reads ``rows`` skewed, at no copy.

    The band is made to be multiplied by a factor T whose diagonals lie in
    ``t_lo..t_hi``: ``buf`` holds ``margin = t_hi - t_lo`` zero rows before
    ``rows`` and ``margin + 1`` after, and ``pad`` zero columns on each
    side of every row, so the strided view of :func:`_band_times`, which
    shifts P by every offset of T, reads zeros outside ``rows`` and never
    leaves ``buf``; it is at least 1, so each row of ``cols``, of length
    ``pitch - 1``, holds all n positions, also for the main diagonal alone."""

    def __init__(self, lo: int, hi: int, n: int, dtype, t_lo: int, t_hi: int):
        width, margin = hi - lo + 1, t_hi - t_lo
        pad = max(-lo, hi, -t_lo, t_hi, 1)
        pitch = n + 2 * pad
        self.buf = np.zeros((width + 2 * margin + 1, pitch), dtype=dtype)
        self.lo, self.hi, self.margin, self.pad = lo, hi, margin, pad
        self.rows = self.buf[margin:margin + width, pad:pad + n]
        skew = margin * pitch + pad - lo  # (pitch - 1)-strided rows start here
        self.cols = self.buf.reshape(-1)[skew:skew + width * (pitch - 1)].reshape(
            width, pitch - 1)[:, :n]


def _band_times(t: _Band, offsets: range, p: _Band) -> _Band:
    """T P by diagonals, clipped to the offsets |o| < n, in one contraction.

    ``offsets`` is an arithmetic progression holding every diagonal e of T
    with a nonzero entry (the others in it are zero rows of T).  Since
    (TP)[i, i + o] sums T[i, i + e] P[i + e, i + o] over e, ascending,
    ``np.einsum("ei,edi->di")`` takes T's diagonals against one strided view
    of P's buffer whose (e, o, i) element is P[i + e, i + o]: the step
    along o is one buffer row, along i one element, and along e one
    element less one row per unit of e.  P's zero margins (see ``_Band``)
    supply the terms that leave 0..n-1.  A product whose offsets all leave
    |o| < n (a power of a one-sided band) is an empty band, lo = hi + 1,
    and so are its products."""
    n = p.rows.shape[1]
    out = _Band(min(max(p.lo + t.lo, 1 - n), n), max(min(p.hi + t.hi, n - 1), -n), n,
                p.rows.dtype, t.lo, t.hi)
    if not len(out.rows) or not len(offsets):
        return out
    pitch, size = p.buf.shape[1], p.buf.itemsize
    e0 = offsets[0]
    start = (p.margin + out.lo - p.lo) * pitch + p.pad + e0 * (1 - pitch)
    shifted = np.ndarray((len(offsets), len(out.rows), n), dtype=p.buf.dtype, buffer=p.buf,
                         offset=start * size,
                         strides=(offsets.step * (1 - pitch) * size, pitch * size, size))
    t_diags = t.rows[e0 - t.lo:offsets[-1] - t.lo + 1:offsets.step]
    np.einsum("ei,edi->di", t_diags, shifted, out=out.rows)
    return out


def _band_pair_trace(a: _Band, b: _Band) -> complex:
    """Tr(AB) = sum over shared offsets o of sum_i A[i, i + o] B[i + o, i],
    one contraction of the stacked diagonals."""
    o0, o1 = max(a.lo, -b.hi), min(a.hi, -b.lo)
    if o0 > o1:
        return 0j
    a_diags = a.rows[o0 - a.lo:o1 - a.lo + 1]
    b_diags = b.cols[-o1 - b.lo:-o0 - b.lo + 1][::-1]  # offsets -o0 down to -o1
    return complex(np.einsum("di,di->", a_diags, b_diags))


class _TracePowers:
    """Incremental Tr(T^m) of the box truncation of a kernel, from powers in
    the form its mode (:func:`_mode`) holds; traces are cached as powers are
    formed, so a determinant costs at most one product per series order.

    - ``diag``: power sums of the nonzero values; values whose power
      underflows to exactly 0 are dropped, since they add nothing to this
      or any later trace (subnormal powers stay);
    - ``band``: ``_Band`` powers over the occupied positions, one
      ``np.einsum`` per product (:func:`_band_times`), and
      Tr(T^m) = Tr(T^a T^b), a = ceil(m/2), b = floor(m/2), so only the
      two powers in use stay alive;
    - ``sparse``: scipy CSR products; ``dense``: products of the
      truncation's matrix (a ``refused`` one is refused: its CSR products
      would cost as much as dense ones, and run slower).

    Every mode reads the stored truncation in its stored dtype, float64
    when no entry has a nonzero imaginary part, else complex128 (see
    :func:`_truncation`); the dense base is the stored matrix itself.
    Traces are ``complex`` either way.  A real chain may round differently
    from the complex one in the last bits; on the shipped fixtures no CLI
    report shows it, at cutoff 8 or 64.
    """

    def __init__(self, k: LatticeKernel, cutoff: int):
        self._mode, entries, self._base = _truncation(k, cutoff)
        self.side = box_side(k.dim, cutoff)
        self._traces: list[complex] = []
        if entries is not None:
            rows, cols, vals = entries
            if self._mode == "diag":
                self._base = vals[vals != 0]
            elif self._mode == "band":  # over the positions the entries occupy
                first, n, lo, hi = _band_span(rows, cols)
                self._base = band = _Band(lo, hi, n, vals.dtype, lo, hi)
                band.rows[cols - rows - lo, rows - first] = vals
                # one progression through the diagonals of T holding a nonzero entry
                held = (np.flatnonzero(band.rows.any(axis=1)) + band.lo).tolist()
                step = math.gcd(*np.diff(held).tolist()) or 1
                self._offsets = range(held[0], held[-1] + 1, step) if held else range(0)
                self._powers = {1: band}
            else:
                if 8 * (self.side + 1) > np.iinfo(np.intp).max:  # the CSR row index
                    raise FeasibilityError(f"a CSR matrix of side {self.side} is too large "
                                           f"to index", count=self.side)
                from scipy import sparse

                self._base = sparse.csr_matrix((vals, (rows, cols)),
                                               shape=(self.side, self.side))
        self._cur = self._base

    def _power(self, a: int) -> _Band:
        """T^a, formed from T^(a-1) when not held; then only those two are held."""
        if a not in self._powers:
            prev = self._powers[a - 1]
            self._powers.clear()  # release T^(a-2) before the product
            self._powers.update({a - 1: prev, a: _band_times(self._base, self._offsets, prev)})
        return self._powers[a]

    def trace(self, m: int) -> complex:
        if m < 1:
            raise ParameterError(f"trace power must be >= 1, got {m}")
        while len(self._traces) < m:
            self._traces.append(self._next_trace(len(self._traces) + 1))
        return self._traces[m - 1]

    def _next_trace(self, m: int) -> complex:
        if self._mode == "band":
            if m > 1:
                return _band_pair_trace(self._power((m + 1) // 2), self._power(m // 2))
            t = self._base
            return complex(t.rows[-t.lo].sum()) if t.lo <= 0 <= t.hi else 0j
        if self._mode == "diag":
            if m > 1:
                cur = self._cur * self._base
                if np.count_nonzero(cur) < len(cur):  # some powers underflowed to 0
                    keep = cur != 0
                    cur, self._base = cur[keep], self._base[keep]
                self._cur = cur
            return complex(self._cur.sum())
        if m > 1:  # advance current power by one order
            self._cur = self._cur @ self._base
        return complex(self._cur.diagonal().sum())


def truncation_trace_source(k: LatticeKernel, cutoff: int,
                            norm_hint: float | None = None) -> TracePowerSource:
    """Trace-power source m -> Tr(T^m) of the box truncation, with powers
    formed incrementally so ascending queries cost at most one product each."""
    return TracePowerSource(_TracePowers(k, cutoff).trace,
                            norm_hint=norm_hint, label=k.label)


def cycle_trace(k: LatticeKernel, m: int, cutoff: int) -> complex:
    """Tr(T^m) over the box truncation, i.e. the sum over closed index
    chains j_0 -> j_1 -> ... -> j_m = j_0 of prod_s K(j_{s-1}, j_s).

    Computed through powers in the form :func:`_mode` picks (at most m - 1
    products, each O(N^3) dense with N the box side, about m/2 of O(N w)
    for a band whose powers span w diagonals) rather than the literal N^m
    nested sum, which :mod:`specdet.oracle` keeps as a cross-check.
    """
    if m < 1:
        raise ParameterError(f"cycle order must be >= 1, got {m}")
    return _TracePowers(k, cutoff).trace(m)


def lattice_determinant(k: LatticeKernel, lam: complex, order: int = 30,
                        cutoff: int = 8, tol: float = 1e-10) -> DetResult:
    """Determinant Det(I + lambda*T) of the box truncation via the trace
    series, with per-order terms and convergence diagnostics.

    The truncation norm is estimated first, from the same stored truncation
    as the trace powers; if |lambda| times the norm reaches 1 the
    computation proceeds anyway and a warning lands in the diagnostics,
    because the series disc is not known a priori and the ratio test
    reports the observed behaviour.
    """
    _check_series(order, tol)
    norm = nuclear_norm_estimate(k, 1.0, cutoff)
    try:
        reach = abs(lam) * norm
    except OverflowError:  # |lambda| past the float range; the series reports overflow
        reach = math.inf if norm > 0.0 else 0.0
    result = plemelj_det(truncation_trace_source(k, cutoff, norm_hint=norm), lam,
                         order=order, tol=tol)
    result.cutoff_used = cutoff
    result.diagnostics["nuclear_norm_estimate"] = norm
    if reach >= 1.0:
        result.diagnostics["warnings"] = [
            f"|lambda|*norm = {reach:.6g} >= 1; the series may converge slowly or not at all",
            *result.diagnostics.get("warnings", [])]
    return result


# ---------------------------------------------------------------------------
# Built-in kernel families
# ---------------------------------------------------------------------------

def _as_index(j, dim: int) -> Index:
    if type(j) is int and dim == 1:
        return (j,)
    if isinstance(j, (tuple, list, np.ndarray)):
        idx = tuple(int(x) for x in j)
    else:
        idx = (int(j),)
    if len(idx) != dim:
        raise ParameterError(f"index {j!r} does not have dimension {dim}")
    return idx


def _sup_norms(points: np.ndarray) -> np.ndarray:
    """Sup norms of the rows of an int64 array, as uint64: |-2^63| wraps to
    -2^63 in int64, inside every box."""
    return np.abs(points).view(np.uint64).max(axis=1, initial=0)


def _site_arrays(table: dict, width: int) -> tuple:
    """A table {site: value} as its sites in lexicographic order, an
    (n, width) int64 array, their uint64 sup norms and their complex128
    values, which the family constructors below are built from.  A site is
    a tuple of ``width`` ints, or a pair of tuples of ``width``/2 ints each."""
    points = np.array(list(table), dtype=np.int64).reshape(-1, width)
    order = np.lexsort(points.T[::-1])  # sites are distinct: one total order
    points = points[order]
    values = np.array(list(table.values()), dtype=np.complex128)[order]
    return points, _sup_norms(points), values


def _table_sites(points, sup, values, dim: int, label: str,
                 band_radius: int | None = None) -> LatticeKernel:
    """The kernel of the site arrays of a table {(j, m): value}, j and m of
    ``dim`` ints; ``eval`` reads a dict built on its first call."""
    table = None

    def eval_fn(j, m):
        nonlocal table
        if table is None:
            table = dict(zip(zip(map(tuple, points[:, :dim].tolist()),
                                 map(tuple, points[:, dim:].tolist())), values.tolist()))
        return table.get((j, m), 0.0j)

    def support_arrays(cutoff):
        inside = sup <= cutoff
        return _nonzero(_positions(points[inside, :dim], cutoff),
                        _positions(points[inside, dim:], cutoff), values[inside])

    return LatticeKernel(dim, eval_fn, band_radius=band_radius,
                         support_arrays=support_arrays, label=label)


def _diagonal_sites(points, sup, values, dim: int, label: str) -> LatticeKernel:
    return _table_sites(np.hstack((points, points)), sup, values, dim, label, band_radius=0)


def diagonal_kernel(entries, dim: int = 1, label: str = "diagonal") -> LatticeKernel:
    """K(j, j) = given value on a finite set of diagonal sites, else 0."""
    table = {_as_index(j, dim): complex(v) for j, v in dict(entries).items()}
    return _diagonal_sites(*_site_arrays(table, dim), dim, label)


def diagonal_kernel_from_rule(rule: Callable[[Index], complex], dim: int = 1,
                              label: str = "diagonal-rule") -> LatticeKernel:
    """Diagonal kernel K(j, j) = rule(j) with unbounded support."""

    def eval_fn(j, m):
        return complex(rule(j)) if j == m else 0.0j

    def support_arrays(cutoff):
        pos = np.arange(box_side(dim, cutoff), dtype=np.int64)
        vals = np.array([complex(rule(j)) for j in iter_box(dim, cutoff)],
                        dtype=np.complex128)
        return pos, pos, vals

    return LatticeKernel(dim, eval_fn, band_radius=0, support_arrays=support_arrays,
                         label=label)


def _mul(a_re, a_im, b_re, b_im):
    """CPython's complex product on (real, imag) pairs,
        (a, b) * (c, d) = (a*c - b*d, a*d + b*c),
    also when one factor is a float g, which CPython up to 3.13 promotes to
    (g, 0.0): on arrays, each Python complex product bit for bit."""
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def _rank_one_sites(factors: list, dim: int, label: str) -> LatticeKernel:
    tables = None

    def eval_fn(j, m):
        nonlocal tables
        if tables is None:
            tables = [dict(zip(map(tuple, p.tolist()), v.tolist())) for p, _, v in factors]
        return tables[0].get(j, 0.0j) * tables[1].get(m, 0.0j)

    def support_arrays(cutoff):
        (rows, gv), (cols, hv) = ((_positions(p[s <= cutoff], cutoff), v[s <= cutoff])
                                  for p, s, v in factors)
        vals = np.empty((len(rows), len(cols)), dtype=np.complex128)
        with np.errstate(invalid="ignore", over="ignore"):  # eval_fn's g(j) * h(m)
            vals.real, vals.imag = _mul(gv.real[:, None], gv.imag[:, None], hv.real, hv.imag)
        return _nonzero(np.repeat(rows, len(cols)), np.tile(cols, len(rows)), vals.ravel())

    # a non-finite factor value leaves the entries to the walk, which names the
    # first non-finite one (inf * 0 is nan, so whole lines may be)
    spoiled = not all(np.isfinite(v).all() for _, _, v in factors)
    return LatticeKernel(dim, eval_fn, support_arrays=None if spoiled else support_arrays,
                         label=label)


def rank_one_kernel(g, h, dim: int = 1, label: str = "rank-one") -> LatticeKernel:
    """K(j, m) = g(j) * h(m) for finitely supported tables g and h."""
    g, h = ({_as_index(j, dim): complex(v) for j, v in dict(f).items()} for f in (g, h))
    return _rank_one_sites([_site_arrays(g, dim), _site_arrays(h, dim)], dim, label)


def _banded_sites(shift_pts, shift_sup, shift_vals, support: int, dim: int,
                  label: str) -> LatticeKernel:
    if support < 0:
        raise ParameterError(f"support must be >= 0, got {support}")
    band = int(shift_sup.max(initial=0))
    off = None

    def eval_fn(j, m):
        nonlocal off
        if max(map(abs, j + m)) > support:
            return 0.0j
        if off is None:
            off = dict(zip(map(tuple, shift_pts.tolist()), shift_vals.tolist()))
        return off.get(tuple(y - x for x, y in zip(j, m)), 0.0j)

    def support_arrays(cutoff):
        r = min(cutoff, support)
        near = shift_sup <= 2 * r  # a longer shift leaves the box, and j + shift may overflow
        rows, cols, shift = _box_pairs(r, shift_pts[near], cutoff)
        return _nonzero(rows, cols, shift_vals[near][shift])

    return LatticeKernel(dim, eval_fn, band_radius=band, support_arrays=support_arrays,
                         label=label)


def banded_kernel(offsets, support: int, dim: int = 1,
                  label: str = "banded") -> LatticeKernel:
    """Toeplitz band on a box: K(j, m) = c_{m-j} for |j|,|m| <= support."""
    off = {_as_index(d, dim): complex(v) for d, v in dict(offsets).items()}
    return _banded_sites(*_site_arrays(off, dim), support, dim, label)


def table_kernel(entries, dim: int = 1, label: str = "table") -> LatticeKernel:
    """Kernel from an explicit finite list of ((j, m), value) sites."""
    table = {(_as_index(j, dim), _as_index(m, dim)): complex(v)
             for (j, m), v in dict(entries).items()}
    return _table_sites(*_site_arrays(table, 2 * dim), dim, label)


def poincare_strict_kernel(label: str = "poincare-strict") -> LatticeKernel:
    """The trace-class matrix whose summed-entry norm diverges.

    Row one holds 1/k for k >= 1 and the diagonal holds 1/j^2 for j != 0
    (the (1,1) site is 1 under both rules).  Its eigenvalues are the
    diagonal values, so the eigenvalue sums converge while the entrywise
    l^1 norm grows like the harmonic series.
    """

    def eval_fn(j, m):
        if j == m and j[0] != 0:
            return complex(1.0 / j[0] ** 2)
        if j[0] == 1 and m[0] >= 1:
            return complex(1.0 / m[0])
        return 0.0j

    def support_arrays(cutoff):
        diag = np.arange(-cutoff, cutoff + 1, dtype=np.int64)
        diag = diag[diag != 0]
        row_one = np.arange(2, cutoff + 1, dtype=np.int64)
        rows = np.concatenate((diag, np.ones_like(row_one))) + cutoff
        cols = np.concatenate((diag, row_one)) + cutoff
        return rows, cols, np.concatenate((1.0 / diag ** 2, 1.0 / row_one))

    return LatticeKernel(1, eval_fn, support_arrays=support_arrays, label=label)
