"""One operator written in several representations: the same truncation
must give the same determinant series in every kind that can express it,
with no oracle involved.

Each lattice identity runs at cutoff 8 (in 1-D side 17, below
SPARSE_SIDE_MIN, where the lattice truncations without declared structure
are dense matrices) and at cutoff 64 (side 129, where they take the diag,
band or sparse path).  Inside the series disc every kind agrees within
1e-13 relative.  Outside it, each kind either agrees or refuses with a
reason (``DetResult.reason``).
"""

import math

import numpy as np
import pytest

from specdet import (
    BlockSymbol,
    BundleSymbol,
    DualObject,
    LatticeKernel,
    SpectralModel,
    banded_kernel,
    bundle_determinant,
    diagonal_kernel,
    flatten_symbol,
    invariant_determinant,
    lattice_determinant,
    manifold_determinant,
    power_decay_symbol,
    table_kernel,
    table_symbol,
    toroidal_determinant,
)

CUTOFFS = (8, 64)
ORDER = 100
INSIDE = (0.5, 0.7 - 0.2j, -0.6)
OUTSIDE = (3.0, -2.5 + 1.0j)


def _agree(results, want, rel=1e-13):
    for name, r in results.items():
        assert abs(r.value - want) <= rel * abs(want), (name, r.value, want)


def _agree_or_refuse(results):
    answers = {name: r for name, r in results.items() if r.reason is None}
    for name, r in results.items():
        assert r.reason in (None, "outside_disc", "overflow"), (name, r.reason)
        assert not np.isfinite(r.tail_estimate) or r.reason is None, name
    if answers:
        _agree(answers, next(iter(answers.values())).value)


def _diagonal_kinds(cutoff, lam):
    """Determinants of the operator with eigenvalues (1 + k^2)^-1, |k| <= R,
    in five kinds: the x-independent toroidal symbol of order -2, its
    diagonal lattice kernel with and without declared structure, the
    spectral table of k^2 (multiplicity 2, 1 at k = 0) with alpha = nu = 2,
    and the block symbol of its 1x1 blocks."""
    ks = range(-cutoff, cutoff + 1)
    w = {k: (1.0 + k * k) ** -1.0 for k in ks}
    eval_only = LatticeKernel(1, lambda j, m: complex(w[j[0]]) if j == m else 0j,
                              label="eval-only")
    spectrum = SpectralModel([float(k * k) for k in range(cutoff + 1)],
                             [1] + [2] * cutoff, 2.0)
    blocks = BlockSymbol(tuple(np.array([[w[k]]], dtype=np.complex128) for k in ks))
    kinds = {
        "toroidal": toroidal_determinant(power_decay_symbol(-2.0), lam, order=ORDER,
                                         cutoff=cutoff),
        "lattice-diagonal": lattice_determinant(diagonal_kernel(w), lam, order=ORDER,
                                                cutoff=cutoff),
        "lattice-eval-only": lattice_determinant(eval_only, lam, order=ORDER, cutoff=cutoff),
        "spectral": manifold_determinant(spectrum, 2.0, lam, order=ORDER),
        "blocks": invariant_determinant(blocks, lam, order=ORDER),
    }
    # the eval-only kernel crosses the dense form and the band form
    held, (mode, _, _) = eval_only._truncated  # the one truncation it remembers
    assert (held, mode) == (cutoff, "dense" if cutoff == 8 else "band")
    return kinds


def _table_kinds(cutoff, lam):
    """Determinants of the quantization of a listed coefficient table (three
    modes per k) and of the lattice table kernel of its entries
    sigma_hat(j - k, k) at (j, k) = (l + k, k)."""
    rng = np.random.default_rng(cutoff)
    entries = {(l, k): complex(rng.uniform(0.1, 0.6), rng.uniform(-0.1, 0.1)) / (1 + k * k)
               for k in range(-cutoff, cutoff + 1) for l in (-1, 0, 1)}
    kernel = table_kernel({((l + k,), (k,)): v for (l, k), v in entries.items()
                           if abs(l + k) <= cutoff})
    kinds = {
        "toroidal-table": toroidal_determinant(table_symbol(entries, order=-2.0), lam,
                                               order=ORDER, cutoff=cutoff),
        "lattice-table": lattice_determinant(kernel, lam, order=ORDER, cutoff=cutoff),
    }
    held, (mode, _, _) = kernel._truncated  # the one truncation it remembers
    assert (held, mode) == (cutoff, "dense" if cutoff == 8 else "band")
    return kinds


@pytest.mark.parametrize("cutoff", CUTOFFS)
@pytest.mark.parametrize("lam", INSIDE)
def test_diagonal_operator_agrees_across_kinds_inside_the_disc(cutoff, lam):
    results = _diagonal_kinds(cutoff, lam)
    assert all(r.converged and r.reason is None for r in results.values())
    _agree(results, results["toroidal"].value)


@pytest.mark.parametrize("cutoff", CUTOFFS)
@pytest.mark.parametrize("lam", INSIDE)
def test_listed_table_agrees_with_its_lattice_kernel_inside_the_disc(cutoff, lam):
    results = _table_kinds(cutoff, lam)
    assert all(r.converged and r.reason is None for r in results.values())
    _agree(results, results["lattice-table"].value)


@pytest.mark.parametrize("cutoff", CUTOFFS)
@pytest.mark.parametrize("lam", OUTSIDE)
def test_outside_the_disc_every_kind_agrees_or_refuses(cutoff, lam):
    for results in (_diagonal_kinds(cutoff, lam), _table_kinds(cutoff, 4 * lam)):
        _agree_or_refuse(results)


def _diagonal_2d_kinds(cutoff, lam):
    """Determinants of the operator with eigenvalues (1 + |k|^2)^-1 on the
    box |k|_inf <= R of Z^2: the x-independent toroidal symbol of order -2
    in 2-D, and its diagonal lattice kernel with and without declared
    structure.  The eval-only kernel declares no band at cutoff 8, where
    its whole box (side 289) is walked into a sparse truncation; at cutoff
    64 (side 16641) that walk would exceed the walk guard, so it declares
    band radius 0 there and is walked along its diagonal alone."""
    w = {(a, b): (1.0 + float(a * a + b * b)) ** -1.0
         for a in range(-cutoff, cutoff + 1) for b in range(-cutoff, cutoff + 1)}
    eval_only = LatticeKernel(2, lambda j, m: complex(w[j]) if j == m else 0j,
                              band_radius=None if cutoff == 8 else 0, label="eval-only")
    kinds = {
        "toroidal": toroidal_determinant(power_decay_symbol(-2.0, dim=2), lam, order=ORDER,
                                         cutoff=cutoff),
        "lattice-diagonal": lattice_determinant(diagonal_kernel(w, dim=2), lam, order=ORDER,
                                                cutoff=cutoff),
        "lattice-eval-only": lattice_determinant(eval_only, lam, order=ORDER, cutoff=cutoff),
    }
    held, (mode, _, _) = eval_only._truncated  # the one truncation it remembers
    assert (held, mode) == (cutoff, "sparse" if cutoff == 8 else "diag")
    return kinds


BUNDLES = {"fiber-2": (2, (1, 2, 3)), "fiber-3": (3, (4, 1, 2))}


def _bundle_kinds(name, lam):
    """Determinants of a random bundle symbol and of the block symbol of
    its flattened blocks S_xi, each repeated d_xi times."""
    fiber_dim, dual_dims = BUNDLES[name]
    rng = np.random.default_rng(fiber_dim)
    dual = DualObject(tuple((f"xi{n}", d) for n, d in enumerate(dual_dims)))
    shape = lambda d: (fiber_dim, fiber_dim, d, d)
    a = BundleSymbol(fiber_dim, dual, {
        xi: 0.2 * (rng.standard_normal(shape(d)) + 1j * rng.standard_normal(shape(d)))
        for xi, d in dual.blocks})
    blocks = BlockSymbol(tuple(flatten_symbol(a, xi) for xi, d in dual.blocks
                               for _ in range(d)))
    return {"bundle": bundle_determinant(a, lam, order=ORDER),
            "blocks": invariant_determinant(blocks, lam, order=ORDER)}


SU2_LEVELS, SU2_ALPHA = 40, 3.0


def _su2_kinds(lam):
    """The operator (1 + Casimir)^(-alpha/2) on L^2(SU(2)) in two kinds. By
    Peter-Weyl the level l <= 40 is the dual block of dimension l + 1, on
    which the Casimir acts as l(l + 2): a bundle symbol of fiber 1 with
    sigma(1, 1, l) = (1 + l(l + 2))^(-alpha/2) I, and the spectral table of
    l(l + 2) with multiplicity (l + 1)^2 and nu = 2."""
    levels = range(SU2_LEVELS + 1)
    dual = DualObject(tuple((str(l), l + 1) for l in levels))
    bundle = BundleSymbol(1, dual, {
        str(l): (1.0 + l * (l + 2)) ** (-SU2_ALPHA / 2) * np.eye(l + 1)[None, None]
        for l in levels})
    spectrum = SpectralModel([float(l * (l + 2)) for l in levels],
                             [(l + 1) ** 2 for l in levels], 2.0)
    return {"bundle": bundle_determinant(bundle, lam, order=ORDER),
            "spectral": manifold_determinant(spectrum, SU2_ALPHA, lam, order=ORDER)}


@pytest.mark.parametrize("cutoff", CUTOFFS)
@pytest.mark.parametrize("lam", INSIDE)
def test_two_dimensional_diagonal_operator_agrees_across_kinds_inside_the_disc(cutoff, lam):
    results = _diagonal_2d_kinds(cutoff, lam)
    assert all(r.converged and r.reason is None for r in results.values())
    _agree(results, results["toroidal"].value)


@pytest.mark.parametrize("name", BUNDLES)
@pytest.mark.parametrize("lam", INSIDE)
def test_bundle_agrees_with_the_blocks_of_its_flattened_symbol_inside_the_disc(name, lam):
    results = _bundle_kinds(name, lam)
    assert all(r.converged and r.reason is None for r in results.values())
    _agree(results, results["blocks"].value)


@pytest.mark.parametrize("lam", INSIDE)
def test_su2_bundle_agrees_with_its_spectral_table_inside_the_disc(lam):
    results = _su2_kinds(lam)
    assert all(r.converged and r.reason is None for r in results.values())
    _agree(results, results["spectral"].value)


@pytest.mark.parametrize("lam", OUTSIDE)
def test_outside_the_disc_bundles_agree_or_refuse(lam):
    for name in BUNDLES:
        _agree_or_refuse(_bundle_kinds(name, lam))
    _agree_or_refuse(_su2_kinds(lam))


@pytest.mark.parametrize("cutoff", CUTOFFS)
@pytest.mark.parametrize("lam", OUTSIDE)
def test_outside_the_disc_two_dimensional_kinds_agree_or_refuse(cutoff, lam):
    _agree_or_refuse(_diagonal_2d_kinds(cutoff, lam))


@pytest.mark.xfail(strict=True, reason="three zero terms stop the series: Tr(P^m) is 0 "
                   "for m = 1, 2, 3, and nothing in the terms bounds the tail after them")
@pytest.mark.parametrize("kind", ["table", "block"])
def test_the_four_cycle_is_not_reported_converged_at_a_wrong_value(kind):
    # the cyclic shift P of four sites has det(I + lam P) = 1 - lam^4 = 0.9375
    # at lam = 0.5; a series that stops early must not say it converged
    if kind == "table":
        r = lattice_determinant(table_kernel({((j + 1) % 4, j): 1.0 for j in range(4)}),
                                0.5, cutoff=3)
    else:
        r = invariant_determinant(BlockSymbol((np.roll(np.eye(4), 1, axis=0),)), 0.5)
    assert not r.converged or abs(r.value - 0.9375) <= 1e-10


@pytest.mark.xfail(strict=True, reason="three zero terms stop the series: Tr(P^m) is 0 "
                   "for m = 1, 2, 3, and nothing in the terms bounds the tail after them")
@pytest.mark.parametrize("lam", [2.0, 0.5])
@pytest.mark.parametrize("kind", ["table", "block"])
def test_the_33_cycle_is_not_reported_converged_at_a_wrong_value(kind, lam):
    # the cyclic shift P of the 33 sites of cutoff 16 has det(I + lam P) =
    # 1 + lam^33: 1 + 2^33 at lam = 2, and 1 + 0.5^33, 1.16e-10 above the
    # stopped series' 1.0, at lam = 0.5
    det = 1.0 + lam ** 33
    if kind == "table":
        r = lattice_determinant(table_kernel({((j + 17) % 33 - 16, j): 1.0
                                              for j in range(-16, 17)}), lam, cutoff=16)
    else:
        r = invariant_determinant(BlockSymbol((np.roll(np.eye(33), 1, axis=0),)), lam)
    assert not r.converged or abs(r.value - det) <= 1e-10 * abs(det)


@pytest.mark.xfail(strict=True, reason="every odd trace power is exactly 0: one small even "
                   "term between two zero terms stops the series, and the zero last term "
                   "reads as a zero tail")
@pytest.mark.parametrize("kind", ["banded", "block"])
def test_a_spectrum_symmetric_about_0_is_not_reported_converged_at_a_wrong_value(kind):
    # the tridiagonal truncation of side 101 with 1.0 below the diagonal and
    # 0.01 above has eigenvalues 2 sqrt(0.01) cos(k pi / 102), k = 1..101, in
    # pairs +-x; at lam = 4 the series stops at order 81 claiming a zero tail,
    # 2.9e-9 relative from the product
    lam = 4.0
    det = math.prod(1.0 + lam * 2.0 * math.sqrt(0.01) * math.cos(k * math.pi / 102)
                    for k in range(1, 102))
    if kind == "banded":
        r = lattice_determinant(banded_kernel({-1: 1.0, 1: 0.01}, support=10 ** 6), lam,
                                order=200, cutoff=50)
    else:
        block = np.diag(np.full(100, 1.0), -1) + np.diag(np.full(100, 0.01), 1)
        r = invariant_determinant(BlockSymbol((block,)), lam, order=200)
    assert not r.converged or abs(r.value - det) <= 1e-10 * abs(det)
