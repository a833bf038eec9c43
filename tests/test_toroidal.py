import cmath
import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import specdet.lattice as lattice_mod
import specdet.toroidal as toroidal_mod
from specdet import (
    ToroidalSymbol,
    assemble_truncation,
    direct_determinant,
    lattice_trace,
    modulated_symbol,
    norm_growth_profile,
    poincare_norm,
    poincare_strict_kernel,
    power_decay_symbol,
    schur_bound,
    sharpness_symbol,
    symbol_fourier_coeff,
    table_kernel,
    table_symbol,
    toroidal_determinant,
    toroidal_matrix,
    truncation_trace_source,
)
from specdet.errors import AliasingError, EvaluationError, FeasibilityError, ParameterError

from support import (assert_truncation_is_entry_walk, bits, non_finite_site, rand_complex,
                     support_entries, trace_powers, truncation_mode)


def test_x_independent_symbol_coefficients():
    s = power_decay_symbol(-2.0)
    for k in (-3, 0, 5):
        g = (1.0 + k * k) ** -1.0
        assert abs(symbol_fourier_coeff(s, 0, k) - g) < 1e-12
        for l in (-2, 1, 4):
            assert abs(symbol_fourier_coeff(s, l, k)) < 1e-12


def test_single_mode_symbol_coefficients():
    theta = 2
    s = modulated_symbol({theta: 1.0}, -2.0)
    for k in (-1, 0, 3):
        g = (1.0 + k * k) ** -1.0
        assert abs(symbol_fourier_coeff(s, theta, k, x_grid=64) - g) < 1e-12
        for l in (0, 1, -2, 3):
            if l != theta:
                assert abs(symbol_fourier_coeff(s, l, k, x_grid=64)) < 1e-12


def test_cosine_symbol_coefficients_and_grid_refinement():
    s = modulated_symbol({1: 0.5, -1: 0.5}, -4.0)  # cos(2*pi*x) * (1+k^2)^-2
    for k in (-2, 0, 1):
        expected = 0.5 * (1.0 + k * k) ** -2.0
        for l in (1, -1):
            coarse = symbol_fourier_coeff(s, l, k, x_grid=64)
            fine = symbol_fourier_coeff(s, l, k, x_grid=128)
            assert abs(coarse - expected) < 1e-12
            assert abs(coarse - fine) < 1e-12
        assert abs(symbol_fourier_coeff(s, 0, k, x_grid=64)) < 1e-12
        assert abs(symbol_fourier_coeff(s, 2, k, x_grid=64)) < 1e-12


def test_aliasing_is_rejected_not_folded():
    s = power_decay_symbol(-2.0)
    s.x_grid = 16
    with pytest.raises(AliasingError):
        symbol_fourier_coeff(s, 8, 0)
    with pytest.raises(AliasingError):
        toroidal_matrix(s, 8)  # needs modes up to 16 on a 16-point grid


def test_x_independent_quantization_is_diagonal():
    s = power_decay_symbol(-2.0)
    k = toroidal_matrix(s, 4)
    for j in range(-4, 5):
        for m in range(-4, 5):
            got = k.eval((j,), (m,))
            if j == m:
                assert abs(got - (1.0 + m * m) ** -1.0) < 1e-12
            else:
                assert abs(got) < 1e-12


@pytest.mark.parametrize("amplitude, dtype", [(1.0, np.float64), (0.5 - 0.25j, np.complex128)])
def test_x_independent_quantization_powers_follow_its_values(amplitude, dtype):
    # a diagonal truncation: real values are held in float64, and their
    # power sums match the complex side-vector chain
    cutoff = 300
    k = toroidal_matrix(power_decay_symbol(-2.0, amplitude=amplitude), cutoff)
    powers = trace_powers(k, cutoff)
    assert truncation_mode(k, cutoff) == "diag" and powers._parts[0][1].dtype == dtype
    _, _, vals = lattice_mod._truncation(k, cutoff)[1]
    cur = vals
    for m in range(1, 601):
        want = complex(cur.sum())
        assert abs(powers.trace(m) - want) <= 1e-14 * abs(want)
        cur = cur * vals
    assert len(powers._parts[0][1]) < len(vals)  # the far values' powers underflowed


def test_single_mode_quantization_is_shifted_diagonal():
    s = modulated_symbol({1: 1.0}, -2.0)
    k = toroidal_matrix(s, 4)
    for j in range(-4, 5):
        for m in range(-4, 5):
            got = k.eval((j,), (m,))
            if j == m + 1:
                assert abs(got - (1.0 + m * m) ** -1.0) < 1e-12
            else:
                assert abs(got) < 1e-12


def test_quantization_matches_coefficients_entrywise():
    s = modulated_symbol({1: 0.5, -1: 0.5}, -4.0)
    k = toroidal_matrix(s, 3)
    for j in range(-3, 4):
        for m in range(-3, 4):
            expected = symbol_fourier_coeff(s, j - m, m, x_grid=64)
            assert abs(k.eval((j,), (m,)) - expected) < 1e-12


def test_trig_polynomial_quantization_is_exact():
    rng = np.random.default_rng(41)
    for _ in range(5):
        modes = {theta: rand_complex(rng, 0.5) for theta in range(-2, 3)
                 if rng.uniform() < 0.7}
        if not modes:
            modes = {0: 0.3}
        nu = -2.0
        s = modulated_symbol(modes, nu)
        k = toroidal_matrix(s, 5)
        for j in range(-5, 6):
            for m in range(-5, 6):
                c = modes.get(j - m, 0.0) * (1.0 + m * m) ** (nu / 2.0)
                assert abs(k.eval((j,), (m,)) - c) < 1e-12


def test_operator_application_matches_matrix_action():
    # apply T directly on the grid through sigma(x, k) and compare the
    # resulting Fourier coefficients with the matrix acting on f-hat
    rng = np.random.default_rng(42)
    modes = {0: 0.4, 1: 0.3 - 0.2j, -2: 0.15}
    s = modulated_symbol(modes, -2.0)
    f_hat = {k: rand_complex(rng) for k in range(-2, 3)}
    cutoff = 6
    kernel = toroidal_matrix(s, cutoff)
    n = 64
    xs = np.arange(n) / n

    tf = np.zeros(n, dtype=complex)
    for g, x in enumerate(xs):
        acc = 0j
        for k, c in f_hat.items():
            acc += cmath.exp(2j * math.pi * x * k) * s.eval((x,), (k,)) * c
        tf[g] = acc
    tf_hat = np.fft.fft(tf) / n

    for j in range(-cutoff, cutoff + 1):
        expected = sum(kernel.eval((j,), (k,)) * c for k, c in f_hat.items())
        assert abs(tf_hat[j % n] - expected) < 1e-10


def test_coefficient_decay_of_smooth_symbol():
    # smooth, genuinely x-dependent symbol: coefficients must decay faster
    # than (1+l)^-4 with the k-factor bounded by the declared order
    nu = -2.0

    def eval_fn(x, k):
        return math.exp(math.cos(2 * math.pi * x[0])) * (1.0 + k[0] ** 2) ** (nu / 2.0)

    s = ToroidalSymbol(1, nu, eval_fn, label="smooth")
    ls = np.arange(1, 9)
    for k in (0, 3):
        mags = np.array([abs(symbol_fourier_coeff(s, int(l), k, x_grid=64))
                         for l in ls])
        assert (mags > 0).all()
        slope = np.polyfit(np.log(1.0 + ls), np.log(mags), 1)[0]
        assert slope <= -4.0
    # k-direction: |sigma_hat(0, k)| <= C (1+|k|)^nu with a modest C
    ratios = [abs(symbol_fourier_coeff(s, 0, k, x_grid=64)) * (1.0 + abs(k)) ** -nu
              for k in range(0, 9)]
    assert max(ratios) <= 2.0 * max(ratios[:2])


def test_poincare_norm_zero_kernel():
    assert poincare_norm(table_kernel({}), 5) == 0


def test_poincare_norm_strict_fixture_dominates_harmonic():
    k = poincare_strict_kernel()
    for cutoff in (50, 100):
        harmonic = sum(1.0 / n for n in range(1, cutoff + 1))
        assert poincare_norm(k, cutoff) >= harmonic - 0.1


def test_sharpness_norm_grows_harmonically():
    s = sharpness_symbol()
    r = 32
    small = poincare_norm(toroidal_matrix(s, r), r)
    large = poincare_norm(toroidal_matrix(s, 2 * r), 2 * r)
    increment = large - small
    assert abs(increment - 2 * math.log(2)) <= 0.2 * 2 * math.log(2)


def test_schur_bound_identity():
    k = table_kernel({(j, j): 1.0 for j in range(-2, 3)})
    for p in (1.0, 2.0, math.inf):
        assert schur_bound(k, p, 2) == 1.0


def test_schur_bound_diagonal_is_max_modulus():
    k = table_kernel({(j, j): 0.1 * (j + 3) for j in range(-2, 3)})
    for p in (1.0, 1.5, 2.0, math.inf):
        assert abs(schur_bound(k, p, 2) - 0.5) < 1e-14


def test_schur_bound_matches_row_column_oracle():
    rng = np.random.default_rng(43)
    entries = {(j, m): float(rng.uniform(0, 1))
               for j in range(-2, 3) for m in range(-2, 3)}
    k = table_kernel(entries)
    row = {j: sum(entries[(j, m)] for m in range(-2, 3)) for j in range(-2, 3)}
    col = {m: sum(entries[(j, m)] for j in range(-2, 3)) for m in range(-2, 3)}
    expected = max(col.values()) ** 0.5 * max(row.values()) ** 0.5
    assert schur_bound(k, 2.0, 2) == expected


def test_determinant_of_zero_symbol():
    result = toroidal_determinant(modulated_symbol({}, -2.0), 0.4, order=10, cutoff=3)
    assert result.value == 1


def test_determinant_x_independent_matches_product():
    s = power_decay_symbol(-2.0)
    lam = 0.1
    cutoff = 8
    result = toroidal_determinant(s, lam, order=30, cutoff=cutoff)
    product = 1.0
    for k in range(-cutoff, cutoff + 1):
        product *= 1 + lam * (1.0 + k * k) ** -1.0
    assert result.converged
    assert abs(result.value - product) <= 1e-9 * max(1.0, product)


def test_determinant_cosine_symbol_matches_lu_oracle():
    s = modulated_symbol({1: 0.5, -1: 0.5}, -4.0)
    lam = 0.2
    result = toroidal_determinant(s, lam, order=25, cutoff=8)
    oracle = direct_determinant(assemble_truncation(toroidal_matrix(s, 8), 8), lam)
    assert abs(result.value - oracle) <= 1e-7 * max(1.0, abs(oracle))


def test_determinant_warns_on_borderline_order():
    result = toroidal_determinant(sharpness_symbol(), 0.1, order=20, cutoff=4)
    assert any("order" in w for w in result.diagnostics.get("warnings", []))


def test_table_symbol_round_trips_through_quantization():
    entries = {(1, 0): 0.25 + 0.1j, (0, 2): -0.5, (-1, -1): 0.3j}
    s = table_symbol(entries, order=-2.0)
    k = toroidal_matrix(s, 3)
    for (l, kk), v in entries.items():
        assert abs(k.eval((l + kk,), (kk,)) - v) < 1e-12


def test_norm_profile_verdicts():
    diverging = norm_growth_profile(sharpness_symbol(), [8, 16, 32, 64])
    assert diverging.verdict == "diverging/inconclusive"
    converging = norm_growth_profile(power_decay_symbol(-2.0), [8, 16, 32, 64])
    assert converging.verdict == "converging"
    flat = norm_growth_profile(modulated_symbol({}, -2.0), [4, 8, 16])
    assert flat.verdict == "converging"
    assert all(v == 0 for _, v in flat.points)


def test_a_profile_is_flat_only_by_its_increments():
    # one cutoff gives no increment, and the summed-entry norm of the
    # sharpness symbol grows like the harmonic series
    one = norm_growth_profile(sharpness_symbol(), [1])
    assert (one.increments, one.verdict) == ([], "diverging/inconclusive")
    assert toroidal_mod.growth_verdict([(1, 0.0)]).verdict == "diverging/inconclusive"
    flat = toroidal_mod.growth_verdict([(1, 0.0), (2, 0.0)])
    assert (flat.increments, flat.verdict) == ([0.0], "converging")


def test_norm_profile_rejects_unsorted_cutoffs():
    with pytest.raises(ParameterError):
        norm_growth_profile(power_decay_symbol(-2.0), [8, 4])


def test_false_x_independence_claim_is_caught():
    s = ToroidalSymbol(1, -2.0, lambda x, k: math.cos(2 * math.pi * x[0]),
                       x_independent=True, label="liar")
    with pytest.raises(EvaluationError, match="x-independent"):
        symbol_fourier_coeff(s, 0, 0, x_grid=32)


def _grid_and_pointwise(make):
    """Two fresh copies of a symbol; the second samples point by point.  A
    symbol with listed coefficients has no grid sampler: both copies of it
    sample point by point."""
    grid, pointwise = make(), make()
    assert (grid.eval_grid is None) == (grid.coeffs is not None)
    pointwise.eval_grid = None
    return grid, pointwise


def _per_k_samples(s, n_x, k):
    """sigma(p / n_x, k) sampled point by point on the n_x-point grid."""
    grid = np.arange(n_x) / n_x
    samples = np.empty((n_x,) * s.dim, dtype=np.complex128)
    for pos in itertools.product(range(n_x), repeat=s.dim):
        samples[pos] = s.eval(tuple(grid[p] for p in pos), k)
    return samples


def _per_k_reference(s, n_x, k):
    """The DFT table of sigma(., k) sampled point by point, as the entries
    A[j, k] read it at the mode (j - k) mod n_x."""
    return np.fft.fftn(_per_k_samples(s, n_x, k)) / n_x ** s.dim


# (1, 9, 37), (1, 2, 12) and (2, 2, 12) sit at the alias limit 4R < n_x
@pytest.mark.parametrize("dim, cutoff, x_grid", [(1, 4, None), (1, 4, 37), (1, 9, 37),
                                                 (1, 2, 12), (2, 1, None), (2, 2, 12)])
@pytest.mark.parametrize("family", ["modulated", "table"])
def test_grid_sampling_is_bitwise_pointwise(family, dim, cutoff, x_grid):
    grid, pointwise = _grid_and_pointwise(
        lambda: _quantized_symbol(family, dim, np.random.default_rng(44 + dim)))
    grid.x_grid = pointwise.x_grid = x_grid
    n_x = x_grid or toroidal_mod._auto_grid(2 * cutoff)
    sampled = []
    if family == "table":
        evaluate = grid.eval
        grid.eval = lambda x, k: sampled.append(k) or evaluate(x, k)
    else:
        eval_grid = grid.eval_grid
        grid.eval_grid = lambda n, ks: sampled.append(len(ks)) or eval_grid(n, ks)
    rows = (2 * cutoff + 1) ** (dim - 1)
    k_grid, k_point = toroidal_matrix(grid, cutoff), toroidal_matrix(pointwise, cutoff)
    if family == "table":
        # listed coefficients are read as they are, with nothing evaluated;
        # the pointwise sampled matrix stays their referee
        assert sampled == []
        matrices = [toroidal_mod._sampled_matrix(pointwise, n_x, cutoff)]
    else:
        matrices = [k.support_arrays(cutoff) for k in (k_grid, k_point)]
        # one call per box row of 2R+1 consecutive k, none for a second kernel
        assert sampled == [2 * cutoff + 1] * rows
        assert np.array_equal(matrices[0].view(np.uint64), matrices[1].view(np.uint64))
    k_again = toroidal_matrix(grid, cutoff)
    assert k_again is k_grid and len(sampled) == (0 if family == "table" else rows)

    for r in (cutoff - 1, cutoff, cutoff + 1):
        if r < 1:
            continue
        want = [bits(a) for a in support_entries(k_point, r)]
        assert [bits(a) for a in support_entries(k_grid, r)] == want
        assert [bits(a) for a in support_entries(k_again, r)] == want

    box = list(itertools.product(range(-cutoff, cutoff + 1), repeat=dim))
    outside = (cutoff + 1,) + (0,) * (dim - 1)
    for c, m in enumerate(box):
        table = _per_k_reference(pointwise, n_x, m)
        want = [bits(complex(table[tuple((a - b) % n_x for a, b in zip(j, m))])) for j in box]
        assert [bits(v) for v in matrices[0][:, c].tolist()] == want
        if family == "modulated":
            for j, w in zip(box, want):
                assert [bits(k.eval(j, m)) for k in (k_grid, k_point, k_again)] == [w] * 3
        assert k_grid.eval(outside, m) == 0 and k_grid.eval(m, outside) == 0

    # the public coefficients read full per-k tables, up to n_x/2 - 1, or
    # the listed values themselves, zero where nothing is listed.  A sampled
    # coefficient samples its k anew on each call, so the pointwise symbol
    # is asked its samples once per k (equal samples give every mode equal)
    # and its coefficients at the corner and centre modes.
    listed = dict(zip(map(tuple, grid.coeffs[0].tolist()), grid.coeffs[1].tolist())) \
        if family == "table" else None
    top = (n_x - 1) // 2
    modes = list(itertools.product(range(-top, top + 1), repeat=dim))
    for m in (box[0], box[len(box) // 2]):
        samples = _per_k_samples(pointwise, n_x, m)
        table = np.fft.fftn(samples) / n_x ** dim
        if listed is None:
            assert bits(toroidal_mod._sample_stack(pointwise, n_x, [m])[0]) == bits(samples)
        for l in modes:
            if listed is None:
                want = bits(complex(table[tuple(v % n_x for v in l)]))
            else:
                want = bits(listed.get(l + m, 0.0j))
            assert bits(symbol_fourier_coeff(grid, l, m, x_grid=n_x)) == want
            if listed is not None or l in (modes[0], modes[len(modes) // 2], modes[-1]):
                assert bits(symbol_fourier_coeff(pointwise, l, m, x_grid=n_x)) == want


# chunks of 5 k in 1-D, of 3 and 4 k across box rows in 2-D, and of one k
# where the cap is below one k's samples
@pytest.mark.parametrize("dim, cutoff, x_grid, chunk", [(1, 9, 37, 5 * 37), (1, 6, None, 1),
                                                        (2, 2, 12, 3 * 144), (2, 3, 17, 4 * 289)])
@pytest.mark.parametrize("family", ["modulated", "table"])
def test_window_samples_at_most_a_chunk_at_once(monkeypatch, family, dim, cutoff, x_grid, chunk):
    whole, chunked = (_quantized_symbol(family, dim, np.random.default_rng(60 + dim))
                      for _ in range(2))
    whole.x_grid = chunked.x_grid = x_grid
    n_x = x_grid or toroidal_mod._auto_grid(2 * cutoff)
    want = toroidal_mod._sampled_matrix(whole, n_x, cutoff)
    sizes = []
    sample_stack = toroidal_mod._sample_stack
    monkeypatch.setattr(toroidal_mod, "_sample_stack", lambda s, n, ks: sizes.append(
        len(ks) * n ** dim) or sample_stack(s, n, ks))
    monkeypatch.setattr(toroidal_mod, "SAMPLE_CHUNK", chunk)
    got = toroidal_mod._sampled_matrix(chunked, n_x, cutoff)
    assert max(sizes) <= max(chunk, n_x ** dim)
    assert sum(sizes) == ((2 * cutoff + 1) * n_x) ** dim
    assert len(sizes) > (2 * cutoff + 1) ** (dim - 1)  # more calls than box rows
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("dim, cutoff, x_grid", [(1, 3, None), (1, 12, None), (1, 6, 37),
                                                 (2, 2, None), (2, 3, 17)])
@pytest.mark.parametrize("family", ["modulated", "table"])
def test_windowed_entries_match_exact_coefficients(family, dim, cutoff, x_grid):
    # trigonometric polynomials of low degree: the grid DFT is exact, so
    # A[j, k] = c_{j-k} a (1+|k|^2)^(nu/2) or sigma_hat(j - k, k) up to rounding
    rng = np.random.default_rng(90 + 10 * dim + cutoff)
    index = lambda reach: tuple(int(v) for v in rng.integers(-reach, reach + 1, size=dim))
    if family == "modulated":
        modes = {index(3): rand_complex(rng) for _ in range(5)}
        amplitude, nu = rand_complex(rng, 2.0), -rng.uniform(1.0, 3.0)
        s = modulated_symbol(modes, nu, dim=dim, amplitude=amplitude)

        def exact(l, k):
            return modes.get(l, 0.0) * amplitude * (1.0 + sum(v * v for v in k)) ** (nu / 2.0)
    else:
        entries = {(index(3), index(cutoff)): rand_complex(rng) for _ in range(6 * cutoff ** dim)}
        s = table_symbol(entries, dim=dim, order=-2.0)

        def exact(l, k):
            return entries.get((l, k), 0.0)

    s.x_grid = x_grid
    k = toroidal_matrix(s, cutoff)
    rows, cols, vals = support_entries(k, cutoff)
    box = list(itertools.product(range(-cutoff, cutoff + 1), repeat=dim))
    want = np.array([exact(tuple(a - b for a, b in zip(box[r], box[c])), box[c])
                     for r, c in zip(rows, cols)], dtype=np.complex128)
    assert np.abs(want).max() > 0
    if family == "modulated":
        assert np.abs(vals - want).max() <= 1e-14 * np.abs(want).max()
        return
    # listed coefficients are read as they are, and the sampled matrix of
    # the same symbol, every pair of the box, agrees with them
    assert np.array_equal(vals, want)
    n_x = x_grid or toroidal_mod._auto_grid(2 * cutoff)
    exact_matrix = np.array([[exact(tuple(a - b for a, b in zip(j, m)), m) for m in box]
                             for j in box], dtype=np.complex128)
    matrix = toroidal_mod._sampled_matrix(s, n_x, cutoff)
    assert np.abs(matrix - exact_matrix).max() <= 1e-14 * np.abs(exact_matrix).max()


@pytest.mark.parametrize("cutoff", [12, 64])
def test_listed_and_sampled_quantizations_agree(cutoff):
    # the coefficient tables of the benchmark's custom_table requests: three
    # modes per k.  At R=64 the listed quantization is a band and the
    # sampled one dense.
    rng = np.random.default_rng(100 + cutoff)
    entries = {(l, k): complex(rng.uniform(0.05, 0.5) / (1 + k * k), rng.uniform(-0.1, 0.1))
               for k in range(-cutoff, cutoff + 1) for l in (-1, 0, 1)}
    exact = table_symbol(entries, order=-2.0)
    # the same symbol without its listed coefficients, quantized from samples
    # taken point by point
    sampled = ToroidalSymbol(1, -2.0, exact.eval)
    k_exact, k_sampled = toroidal_matrix(exact, cutoff), toroidal_matrix(sampled, cutoff)
    assert (k_exact.band_radius, k_sampled.band_radius) == (1, 2 * cutoff)
    if cutoff == 64:
        modes = [truncation_mode(k, cutoff) for k in (k_exact, k_sampled)]
        assert modes == ["band", "dense"]

    def close(a, b):
        return abs(a - b) <= 1e-12 * max(1.0, abs(b))

    assert close(lattice_trace(k_exact, cutoff), lattice_trace(k_sampled, cutoff))
    assert close(poincare_norm(k_exact, cutoff), poincare_norm(k_sampled, cutoff))
    for lam in (0.1, 0.15 - 0.05j):
        got, want = (toroidal_determinant(s, lam, order=30, cutoff=cutoff)
                     for s in (exact, sampled))
        assert got.converged and want.converged and got.order_used == want.order_used
        assert close(got.value, want.value)
        assert all(close(a, b) for a, b in zip(got.terms, want.terms))


def test_listed_coefficients_beyond_the_box_are_dropped_not_folded():
    # sigma_hat(256, 0) connects no two points of the box R = 8; on a sampled
    # 256-point grid it would fold onto sigma_hat(0, 0)
    base = {(0, 0): 0.5, (1, 1): 0.2 + 0.1j, (-1, 0): 0.2j}
    # modes past 2R, k past R, j = l + k past R, and int64 ends whose sum
    # l + k = -1 would land in the box
    far = {(256, 0): 0.5, (141, 0): 0.25, (100, -20): 0.25, (0, 71): 0.5, (-3, -71): 0.1,
           (1 << 62, 0): 0.5, (-(1 << 63), 0): 0.5, (0, -(1 << 63)): 0.5,
           ((1 << 63) - 1, -(1 << 63)): 0.5, (-(1 << 63), (1 << 63) - 1): 0.5}
    plain, padded = table_symbol(base, order=-2.0), table_symbol({**base, **far}, order=-2.0)
    for cutoff in (1, 8, 70):
        k_plain, k_padded = toroidal_matrix(plain, cutoff), toroidal_matrix(padded, cutoff)
        assert k_padded.band_radius == k_plain.band_radius == 1
        for r in (cutoff - 1, cutoff, cutoff + 1):
            if r >= 1:
                assert ([bits(a) for a in k_padded.support_arrays(r)]
                        == [bits(a) for a in k_plain.support_arrays(r)])
    assert lattice_trace(toroidal_matrix(padded, 8), 8) == 0.5
    got, want = (toroidal_determinant(s, 0.5, order=30, cutoff=8) for s in (padded, plain))
    assert bits(got.value) == bits(want.value)
    assert abs(got.value - 1.25) <= 1e-11


def test_listed_coefficients_must_be_finite():
    for bad in (complex(math.inf, 0.0), complex(0.0, math.nan)):
        with pytest.raises(EvaluationError, match=r"non-finite coefficient at \(l=\(1,\), k=\(-2,\)\)"):
            table_symbol({(0, 0): 0.5, (1, -2): bad, (3, 4): math.inf}, label="bad")


def test_wide_listed_mode_costs_only_its_entries(monkeypatch):
    # sigma_hat(1000, -500) beside a three-mode table: the band radius is
    # 1000, yet the truncation holds the four listed entries and nothing is
    # sampled
    monkeypatch.setattr(toroidal_mod, "_sample_stack", None)  # not callable
    cutoff = 20000
    s = table_symbol({**{(l, 0): 0.25 for l in (-1, 0, 1)}, (1000, -500): 0.5})
    k = toroidal_matrix(s, cutoff)
    assert k.band_radius == 1000
    assert len(lattice_mod._truncation(k, cutoff)[1][2]) == 4
    result = toroidal_determinant(s, 0.3, order=30, cutoff=cutoff)
    assert result.converged and abs(result.value - 1.075) <= 1e-12
    # the series read the remembered kernel and its stored truncation
    assert s._quantized[1] is k and k._truncated[0] == cutoff


def _declared(s: ToroidalSymbol) -> ToroidalSymbol:
    """A library copy of a built-in x-independent symbol: ``eval`` and the
    declaration, without the closed form."""
    return ToroidalSymbol(s.dim, s.order, s.eval, x_independent=True, label=s.label)


@pytest.mark.parametrize("family", ["power_decay", "declared", "table"])
def test_listed_quantizations_sample_nothing(family):
    # a built-in x-independent symbol is read from its closed form and a
    # table as listed, without evaluating anything; a library symbol that
    # only declares x-independence is checked on four points per k, once
    # for both calls.  Each stays diagonal at any side
    cutoff = 64
    rng = np.random.default_rng(70)
    if family == "declared":
        s = _declared(_quantized_symbol("power_decay", 1, rng))
    else:
        s = _quantized_symbol(family, 1, rng)
    calls = []
    evaluate = s.eval
    s.eval = lambda x, k: calls.append(k) or evaluate(x, k)
    s.eval_grid = None
    kernels = [toroidal_matrix(s, cutoff) for _ in range(2)]
    per_k = 4 if family == "declared" else 0
    assert sorted(calls) == sorted([(k,) for k in range(-cutoff, cutoff + 1)] * per_k)
    # listed once: the second call returns the remembered kernel
    assert kernels[0] is kernels[1] is s._quantized[1]
    assert s._quantized[0] == (toroidal_mod._auto_grid(2 * cutoff), cutoff)
    if family != "table":
        assert truncation_mode(kernels[0], cutoff) == "diag"


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(family=st.sampled_from(["power_decay", "sharpness"]),
       dim=st.sampled_from([1, 2]),
       order=st.floats(-6.0, 3.0, allow_nan=False),
       amplitude=st.one_of(st.floats(-1e3, 1e3),
                           st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                              allow_infinity=False)),
       cutoff=st.integers(1, 10 ** 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_closed_form_values_are_eval_bit_for_bit(family, dim, order, amplitude, cutoff, seed):
    # on a random subset of the box (all of it when small), with the box's
    # corners: 1-D cutoffs up to 10^5, 2-D up to 40
    if dim == 2:
        cutoff = cutoff % 40 + 1
    if family == "power_decay":
        s = power_decay_symbol(order, dim=dim, amplitude=amplitude)
    else:
        s = sharpness_symbol(dim=dim)
    points = lattice_mod._box_points(dim, cutoff)
    values = s.closed_form(points)
    at = np.random.default_rng(seed).permutation(len(points))[:500]
    for i in [0, len(points) - 1, *at.tolist()]:
        k = tuple(points[i].tolist())
        assert bits(values[i]) == bits(complex(s.eval((0.0,) * dim, k))), k


@pytest.mark.parametrize("dim", [1, 2])
def test_closed_form_names_the_first_non_finite_value_as_eval_does(dim):
    # order 2 and amplitude 1e308: every value but sigma(0) overflows, and
    # both routes name the first site in box order, at x = 0
    messages = []
    for s in (power_decay_symbol(2.0, dim=dim, amplitude=1e308),
              _declared(power_decay_symbol(2.0, dim=dim, amplitude=1e308))):
        with pytest.raises(EvaluationError, match=r"non-finite at \(x=\(0\.0,") as info:
            toroidal_matrix(s, 3)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_fourier_coefficients_do_not_fold_far_modes():
    # the automatic grid holds the symbol's modes, and listed coefficients
    # are answered as listed: a 16-point grid folds the mode 256 onto 0
    far = modulated_symbol({1: 0.25, -1: 0.25, 256: 0.5}, -2.0)
    assert abs(symbol_fourier_coeff(far, 0, 0)) <= 1e-15
    assert abs(symbol_fourier_coeff(far, 256, 0) - 0.5) <= 1e-12
    table = table_symbol({(0, 0): 0.5, (256, 0): 0.5})
    assert symbol_fourier_coeff(table, 0, 0) == 0.5
    assert symbol_fourier_coeff(table, 256, 0) == 0.5
    assert symbol_fourier_coeff(table, 1, 0) == 0
    assert symbol_fourier_coeff(table, 1 << 70, 0) == 0  # beyond int64, so not listed
    with pytest.raises(AliasingError):  # an explicit grid must still hold the mode
        symbol_fourier_coeff(table, 256, 0, x_grid=512)


def test_modulated_grid_holds_every_mode():
    # theta = 256 adds nothing to the box R = 8, but a 256-point grid (the
    # automatic one for R = 8) would fold it onto the zero mode
    modes = {1: 0.25, -1: 0.25}
    plain = modulated_symbol(modes, -2.0)
    far = modulated_symbol({**modes, 256: 0.5}, -2.0)
    assert far.mode_reach == 256
    want = lattice_trace(toroidal_matrix(plain, 8), 8)
    assert abs(lattice_trace(toroidal_matrix(far, 8), 8) - want) <= 1e-13
    far = modulated_symbol({**modes, 256: 0.5}, -2.0)
    far.x_grid = 512
    with pytest.raises(AliasingError):
        toroidal_matrix(far, 8)
    far.x_grid = 513
    assert abs(lattice_trace(toroidal_matrix(far, 8), 8) - want) <= 1e-13


def test_quantization_keeps_only_the_coefficient_window():
    # 2-D R=6 on the 128-point grid: 169 full tables would hold 44 MB, the
    # 169 x 169 matrix holds 0.46 MB
    import tracemalloc

    s = modulated_symbol({(1, 0): 0.25, (0, -1): 0.2 + 0.1j, (1, 1): 0.1}, -3.0, dim=2)
    tracemalloc.start()
    try:
        k = toroidal_matrix(s, 6)
        lattice_trace(k, 6)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 8 << 20
    assert peak <= 20 << 20


@pytest.mark.parametrize("modes, dim", [({1: 10.0}, 1),
                                        # overflows first off the origin
                                        ({(1, 0): 10.0, (0, 1): 10.0, (0, 0): -20.0}, 2)])
def test_non_finite_sample_is_named_on_both_paths(modes, dim):
    messages = []
    for s in _grid_and_pointwise(
            lambda: modulated_symbol(modes, -2.0, dim=dim, amplitude=1e308)):
        with pytest.raises(EvaluationError, match=r"non-finite at \(x=.*, k=\(-1,") as info:
            toroidal_matrix(s, 1)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_sample_guard_refuses_before_sampling():
    s = modulated_symbol({1: 0.25, -1: 0.25}, -2.0)
    with pytest.raises(FeasibilityError) as info:
        toroidal_matrix(s, 5000)
    assert info.value.count == 10001 * 131072
    assert s._quantized is None
    # a refused cutoff leaves the remembered kernel of another in place
    k = toroidal_matrix(s, 2)
    with pytest.raises(FeasibilityError):
        toroidal_matrix(s, 5000)
    assert s._quantized[1] is k
    # a built-in x-independent symbol takes one closed-form value per k,
    # here 10,001: under its guard
    k = toroidal_matrix(power_decay_symbol(-2.0), 5000)
    assert k.eval((5000,), (5000,)) == pytest.approx(1.0 / (1.0 + 5000 ** 2))


def test_an_x_independent_quantization_is_sized_before_it_samples():
    # the box of a 2-D cutoff 10^10 could not even be allocated: a built-in
    # symbol counts its box sites, one closed-form value each, and a
    # declared one sigma(0, k) and three probes per k
    def no_sample(*args):
        raise AssertionError("the symbol was sampled")

    sites = (2 * 10 ** 10 + 1) ** 2
    built_in = power_decay_symbol(-2.0, dim=2)
    declared = _declared(built_in)
    built_in.eval = built_in.closed_form = declared.eval = no_sample
    for s, count, what in ((built_in, 400000000040000000001, "box sites"),
                           (declared, 1600000000160000000004, "samples, four per box site")):
        with pytest.raises(FeasibilityError) as info:
            toroidal_matrix(s, 10 ** 10)
        assert info.value.count == count == (sites if s is built_in else 4 * sites)
        assert f"needs {count} {what}, above the guard" in str(info.value)
        assert s._quantized is None


@pytest.mark.parametrize("dim, admitted", [(1, 12), (2, 3)])
def test_the_x_independent_guard_admits_up_to_the_limit(monkeypatch, dim, admitted):
    # one closed-form value per box site for a built-in symbol, four
    # samples for a declared one
    side = (2 * admitted + 1) ** dim
    monkeypatch.setattr(toroidal_mod, "VALUE_LIMIT", side)
    monkeypatch.setattr(toroidal_mod, "SAMPLE_LIMIT", 4 * side)
    built_in = power_decay_symbol(-2.0, dim=dim)
    for s, per_site in ((built_in, 1), (_declared(built_in), 4)):
        assert len(toroidal_matrix(s, admitted).support_arrays(admitted)[2]) == side
        with pytest.raises(FeasibilityError) as info:
            toroidal_matrix(s, admitted + 1)
        assert info.value.count == per_site * (2 * admitted + 3) ** dim


@pytest.mark.parametrize("dim, last", [(1, 4194303), (2, 1447)])
def test_the_built_in_guard_keeps_the_four_sample_boundary(dim, last):
    # the built-ins are refused past the cutoffs the four samples per site
    # were admitted up to, so no request changes its exit code
    assert 4 * (2 * last + 1) ** dim <= toroidal_mod.SAMPLE_LIMIT < 4 * (2 * last + 3) ** dim
    assert (2 * last + 1) ** dim <= toroidal_mod.VALUE_LIMIT < (2 * last + 3) ** dim
    for s in (power_decay_symbol(-2.0, dim=dim), sharpness_symbol(dim=dim)):
        with pytest.raises(FeasibilityError) as info:
            toroidal_matrix(s, last + 1)
        assert info.value.count == (2 * last + 3) ** dim


def test_threads_at_different_cutoffs_each_get_their_own_kernel():
    # one symbol, four threads, each at its own cutoff: the remembered
    # kernel is replaced all the time, yet each call returns a kernel of
    # its own cutoff, 2R + 1 diagonal entries
    s = power_decay_symbol(-2.0)
    wrong, done = [], []

    def work(cutoff):
        for _ in range(200):
            k = toroidal_matrix(s, cutoff)
            if len(k.support_arrays(10)[2]) != 2 * cutoff + 1:
                wrong.append(cutoff)
        done.append(cutoff)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(r,)) for r in (1, 2, 3, 4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == [1, 2, 3, 4] and wrong == []


def test_two_dimensional_symbol_round_trip():
    s = power_decay_symbol(-3.0, dim=2)
    k = toroidal_matrix(s, 1)
    trace = lattice_trace(k, 1)
    expected = sum((1.0 + a * a + b * b) ** -1.5
                   for a in (-1, 0, 1) for b in (-1, 0, 1))
    assert abs(trace - expected) < 1e-12
    lam = 0.2
    result = toroidal_determinant(s, lam, order=25, cutoff=1)
    product = 1.0
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            product *= 1 + lam * (1.0 + a * a + b * b) ** -1.5
    assert abs(result.value - product) <= 1e-9 * product


def _quantized_symbol(family, dim, rng):
    def index():
        return tuple(int(v) for v in rng.integers(-2, 3, size=dim))

    if family == "power_decay":
        return power_decay_symbol(-2.5, dim=dim, amplitude=rand_complex(rng, 2.0))
    if family == "modulated":
        modes = {index(): rand_complex(rng) for _ in range(4)}
        return modulated_symbol(modes, -2.5, dim=dim, amplitude=rand_complex(rng, 2.0))
    entries = {(index(), index()): rand_complex(rng) for _ in range(8)}
    return table_symbol(entries, dim=dim, order=-2.0)


@pytest.mark.parametrize("offset", [-1, 0, 1])  # box below, at and above the support
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", ["power_decay", "modulated", "table"])
def test_quantization_entries_are_the_entry_walk(family, dim, offset):
    s = _quantized_symbol(family, dim, np.random.default_rng(80 + dim))
    support = 2
    k = toroidal_matrix(s, support)
    assert_truncation_is_entry_walk(k, support + offset)


def test_schur_bound_of_quantization_matches_row_column_walk():
    s = modulated_symbol({1: 0.3 - 0.1j, -2: 0.2j, 0: 0.4}, -2.0, amplitude=0.8 + 0.3j)
    k = toroidal_matrix(s, 3)
    a = assemble_truncation(k, 3)
    rows = [0.0] * a.rows
    cols = [0.0] * a.cols
    for r in range(a.rows):
        for c in range(a.cols):
            rows[r] += abs(a.at(r, c))
            cols[c] += abs(a.at(r, c))
    for p in (1.0, 2.0, 3.0):
        assert schur_bound(k, p, 3) == max(cols) ** (1.0 / p) * max(rows) ** (1.0 - 1.0 / p)
    assert schur_bound(k, math.inf, 3) == max(rows)


def test_two_dimensional_bad_coefficient_is_named_like_the_entry_walk():
    # finite samples whose DFT overflows at the mode (1, -1) of k = (1, 0)
    def eval_fn(x, k):
        if k != (1, 0):
            return 0.1 / (1 + k[0] ** 2 + k[1] ** 2)
        return 2e306 * cmath.exp(2j * math.pi * (x[0] - x[1]))

    s = ToroidalSymbol(2, -2.0, eval_fn, x_grid=16, label="overflow")
    with np.errstate(over="ignore", invalid="ignore"):
        k = toroidal_matrix(s, 2)
    with pytest.raises(EvaluationError) as walk:
        assemble_truncation(k, 2)
    with pytest.raises(EvaluationError) as entries:
        poincare_norm(k, 2)
    assert non_finite_site(str(walk.value)) == non_finite_site(str(entries.value)) \
        == ("(2, -1)", "(1, 0)")


def test_a_sampled_quantization_hands_over_its_matrix():
    # the stored truncation is the sampled matrix itself: no copy, no
    # entries; the symbol is sampled once per (grid, cutoff)
    cutoff = 70
    s = modulated_symbol({1: 0.25, -2: 0.1j}, -2.0)
    sampled = []
    eval_grid = s.eval_grid
    s.eval_grid = lambda n, ks: sampled.append(n) or eval_grid(n, ks)
    k = toroidal_matrix(s, cutoff)
    mode, entries, matrix = lattice_mod._truncation(k, cutoff)
    assert mode == "dense" and entries is None
    assert matrix is k.support_arrays(cutoff) and not matrix.flags.writeable
    assert toroidal_matrix(s, cutoff) is k
    assert sampled == [toroidal_mod._auto_grid(2 * cutoff)]
    s.x_grid = 512  # another grid at the same cutoff is sampled anew
    assert toroidal_matrix(s, cutoff) is not k and sampled[1:] == [512]
    assert bits(lattice_trace(k, cutoff)) == bits(complex(sum(matrix.diagonal().tolist())))


@pytest.mark.parametrize("dim, cutoff, modes", [
    (1, 10, {1: 0.25}),
    (2, 3, {(1, 0): 0.25, (0, -1): 0.2 + 0.1j}),
])
def test_dense_quantization_above_the_dense_limit_keeps_its_trace(monkeypatch, dim, cutoff,
                                                                   modes):
    # the trace reads only the diagonal, as the entry-by-entry walk does;
    # the norm and the trace powers need every entry and are refused
    monkeypatch.setattr(lattice_mod, "DENSE_SIDE_LIMIT", 20)
    s = modulated_symbol(modes, -3.0, dim=dim)
    k = toroidal_matrix(s, cutoff)
    acc = 0.0j
    for n in itertools.product(range(-cutoff, cutoff + 1), repeat=dim):
        acc += k.value(n, n)
    assert bits(lattice_trace(k, cutoff)) == bits(acc)
    # the refused truncation is the sampled matrix itself, held for its trace
    mode, entries, held = lattice_mod._truncation(k, cutoff, every_entry=False)
    assert mode == "refused" and entries is None
    assert held is k.support_arrays(cutoff) and s._quantized[1] is k
    side = (2 * cutoff + 1) ** dim
    for needs_every_entry in (poincare_norm, truncation_trace_source):
        with pytest.raises(FeasibilityError) as info:
            needs_every_entry(k, cutoff)
        assert info.value.count == side
    assert k._truncated[0] == cutoff


_MODULATED_MODES = {1: {1: 0.25, -2: 0.1j, 0: 0.3}, 2: {(1, 0): 0.25, (0, -2): 0.2 + 0.1j}}


@pytest.mark.parametrize("dim", [1, 2])
def test_alternating_grids_sample_as_fresh_symbols(dim):
    # one modulated symbol quantized at grids and cutoffs in any order, with
    # repeats: each matrix equals that of a fresh symbol bit for bit
    def make():
        return modulated_symbol(_MODULATED_MODES[dim], -2.0, dim=dim, amplitude=0.8 - 0.3j)

    fresh = {}

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(st.lists(st.tuples(st.sampled_from([16, 17, 24, 32]), st.sampled_from([1, 2, 3])),
                    min_size=1, max_size=6))
    def agree(reads):
        s = make()
        for n_x, cutoff in reads:
            if (n_x, cutoff) not in fresh:
                other = make()
                other.x_grid = n_x
                fresh[n_x, cutoff] = bits(toroidal_matrix(other, cutoff).support_arrays(cutoff))
            s.x_grid = n_x
            got = toroidal_matrix(s, cutoff).support_arrays(cutoff)
            assert bits(got) == fresh[n_x, cutoff]
            assert s._quantized[0] == (n_x, cutoff)

    agree()
    assert len(fresh) == 12
