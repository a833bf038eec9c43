import cmath
import itertools
import math
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import specdet.lattice as lattice_mod
from specdet import (
    CMatrix,
    LatticeKernel,
    assemble_truncation,
    banded_kernel,
    diagonal_kernel,
    diagonal_kernel_from_rule,
    direct_determinant,
    lattice_determinant,
    lattice_trace,
    literal_cycle_sum,
    lu_determinant,
    mat_mul,
    mat_power_trace,
    mat_trace,
    modulated_symbol,
    nuclear_norm_estimate,
    poincare_strict_kernel,
    power_decay_symbol,
    radius_estimate,
    rank_one_kernel,
    schur_bound,
    table_kernel,
    table_symbol,
    toroidal_matrix,
    truncation_trace_source,
)
from specdet.errors import EvaluationError, FeasibilityError, ParameterError

from support import (as_array, assert_truncation_is_entry_walk, bits, matrix_entries,
                     non_finite_site, rand_complex, trace_powers, truncation_mode)


def random_table_kernel(rng, support=3, density=0.5, scale=0.4):
    entries = {}
    for j in range(-support, support + 1):
        for m in range(-support, support + 1):
            if rng.uniform() < density:
                entries[(j, m)] = rand_complex(rng, scale)
    if not entries:
        entries[(0, 0)] = rand_complex(rng, scale)
    return table_kernel(entries)


def test_nuclear_norm_of_zero_kernel():
    k = diagonal_kernel({})
    assert nuclear_norm_estimate(k, 1.0, 5) == 0
    assert nuclear_norm_estimate(k, 2.0, 5) == 0


def test_nuclear_norm_geometric_diagonal():
    k = diagonal_kernel_from_rule(lambda j: 2.0 ** (-abs(j[0])))
    for cutoff in (3, 6, 10):
        expected = 3.0 - 2.0 ** (1 - cutoff)
        assert abs(nuclear_norm_estimate(k, 1.0, cutoff) - expected) < 1e-12


def test_nuclear_norm_detects_non_l1_factor():
    # rank-one kernel g(j)h(m) with g square-summable but not summable:
    # the row sums collapse to |g(j)|*||h||_p and their partial sums grow
    # without bound
    def eval_fn(j, m):
        return (1.0 / (1 + abs(j[0]))) * (1.0 if m[0] == 0 else 0.0)

    k = LatticeKernel(1, eval_fn, label="g-tensor-h")
    s100 = nuclear_norm_estimate(k, 2.0, 100)
    s200 = nuclear_norm_estimate(k, 2.0, 200)
    s400 = nuclear_norm_estimate(k, 2.0, 400)
    assert s200 > s100 + 0.5
    assert s400 > s200 + 0.5


def test_nuclear_norm_monotone_in_cutoff():
    rng = np.random.default_rng(21)
    k = random_table_kernel(rng, support=3)
    values = [nuclear_norm_estimate(k, 1.0, r) for r in (1, 2, 3, 4, 6)]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_nuclear_norm_rejects_bad_p():
    k = diagonal_kernel({0: 1.0})
    with pytest.raises(ParameterError):
        nuclear_norm_estimate(k, 0.5, 3)


def test_lattice_trace_counts_identity_box():
    k = diagonal_kernel({j: 1.0 for j in range(-2, 3)})
    for cutoff in (2, 5, 9):
        assert lattice_trace(k, cutoff) == 5


def test_lattice_trace_geometric():
    k = diagonal_kernel_from_rule(lambda j: 2.0 ** (-abs(j[0])))
    assert abs(lattice_trace(k, 10) - (3.0 - 2.0 ** -9)) < 1e-14


def test_lattice_trace_matches_assembled_diagonal():
    rng = np.random.default_rng(22)
    k = random_table_kernel(rng, support=3)
    assert lattice_trace(k, 3) == mat_trace(assemble_truncation(k, 3))


def test_cycle_trace_diagonal_powers():
    mus = {j: 0.1 * j + 0.05j for j in range(-2, 3)}
    k = diagonal_kernel(mus)
    expected = sum(v ** 3 for v in mus.values())
    assert abs(truncation_trace_source(k, 2).trace_power(3) - expected) < 1e-14


def test_cycle_trace_nilpotent_shift():
    k = banded_kernel({1: 1.0}, support=2)
    assert truncation_trace_source(k, 2).trace_power(2) == 0


def test_cycle_trace_order_one_is_trace():
    rng = np.random.default_rng(23)
    k = random_table_kernel(rng, support=2)
    assert truncation_trace_source(k, 2).trace_power(1) == lattice_trace(k, 2)


def test_cycle_trace_matches_literal_nested_sum():
    rng = np.random.default_rng(24)
    for _ in range(5):
        k = random_table_kernel(rng, support=2)
        for m in (1, 2, 3, 4):
            fast = truncation_trace_source(k, 2).trace_power(m)
            literal = literal_cycle_sum(k, m, 2)
            assert abs(fast - literal) <= 1e-10 * max(1.0, abs(literal))


def test_cycle_trace_matches_matrix_power_of_truncation():
    rng = np.random.default_rng(25)
    k = random_table_kernel(rng, support=2)
    truncation = assemble_truncation(k, 4)
    for m in (1, 2, 5):
        expected = mat_power_trace(truncation, m)
        got = truncation_trace_source(k, 4).trace_power(m)
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_sparse_path_agrees_with_dense():
    # 37 entries on 13 positions: too full for a band, but sparse in the
    # box of side 201, whose traces are those of the box of side 13
    k = banded_kernel({0: 0.3, 1: 0.2 - 0.1j, -1: -0.15}, support=6)
    assert truncation_mode(k, 6) == "dense"
    assert truncation_mode(k, 100) == "sparse"
    dense = [truncation_trace_source(k, 6).trace_power(m) for m in (1, 2, 3, 4)]
    sparse = [truncation_trace_source(k, 100).trace_power(m) for m in (1, 2, 3, 4)]
    for a, b in zip(dense, sparse):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def _band_only_tridiagonal(sup=0.2 - 0.1j):
    # declares a band but no support iterator, so entries come from the band walk
    def eval_fn(j, m):
        return {-1: -0.15, 0: 0.3, 1: sup}.get(m[0] - j[0], 0.0j)

    return LatticeKernel(1, eval_fn, band_radius=1, label="band-only")


def _assert_matches_dense_chain(monkeypatch, k, cutoff, powers):
    """Traces of ``powers`` within 1e-12 of the dense chain over orders 1..30."""
    traces = [powers.trace(m) for m in range(1, 31)]
    with monkeypatch.context() as patch:
        patch.setattr(lattice_mod, "SPARSE_SIDE_MIN", lattice_mod.DENSE_SIDE_LIMIT + 1)
        patch.setattr(k, "_truncated", None)  # the mode is chosen once per truncation
        reference = trace_powers(k, cutoff)
        assert truncation_mode(k, cutoff) == "dense"
        for m, got in enumerate(traces, start=1):
            expected = reference.trace(m)
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def _record_band_products(monkeypatch):
    """Wraps the band product; each call appends (lo, hi, alive): the offset
    range of the power it forms and how many powers that earlier calls
    formed are still alive when it is called."""
    calls, formed = [], []
    real = lattice_mod._band_times

    def recording(t, offsets, p):
        alive = sum(ref() is not None for ref in formed)
        out = real(t, offsets, p)
        formed.append(weakref.ref(out))
        calls.append((out.lo, out.hi, alive))
        return out

    monkeypatch.setattr(lattice_mod, "_band_times", recording)
    return calls


@pytest.mark.parametrize("make_kernel", [
    lambda: banded_kernel({0: 0.3, 1: 0.2 - 0.1j, -1: -0.15}, support=200),
    _band_only_tridiagonal,
])
def test_banded_truncation_takes_band_path(monkeypatch, make_kernel):
    k = make_kernel()
    powers = trace_powers(k, 190)
    assert truncation_mode(k, 190) == "band"
    _assert_matches_dense_chain(monkeypatch, k, 190, powers)


@pytest.mark.parametrize("offsets, support, cutoff", [
    ({-2: 0.1 + 0.2j, -1: -0.3j, 0: 0.25 - 0.05j, 1: 0.15 + 0.1j}, 200, 150),
    ({-1: -0.15, 0: 0.3, 1: 0.2 - 0.1j}, 60, 190),
], ids=["asymmetric-complex", "support-below-cutoff"])
def test_band_path_agrees_with_dense_chain(monkeypatch, offsets, support, cutoff):
    k = banded_kernel(offsets, support=support)
    powers = trace_powers(k, cutoff)
    assert truncation_mode(k, cutoff) == "band"
    # the diagonals span the occupied positions only, not the box
    assert powers._parts[0][1].rows.shape == (max(offsets) - min(offsets) + 1,
                                       2 * min(support, cutoff) + 1)
    _assert_matches_dense_chain(monkeypatch, k, cutoff, powers)


def test_one_sided_shift_keeps_one_diagonal_per_power(monkeypatch):
    calls = _record_band_products(monkeypatch)
    k = banded_kernel({1: 0.9 - 0.4j}, support=200)
    powers = trace_powers(k, 150)
    assert truncation_mode(k, 150) == "band"
    assert [powers.trace(m) for m in range(1, 31)] == [0] * 30
    assert [(lo, hi) for lo, hi, _ in calls] == [(a, a) for a in range(2, 16)]


@pytest.mark.parametrize("make_kernel", [
    lambda: banded_kernel({10: 0.5}, support=200),
    lambda: banded_kernel({-10: 0.5 + 0.1j}, support=200),
    # T^7 T: diagonal 19 of T moves every diagonal of T^7 past the box
    lambda: banded_kernel({16: 0.4, 19: 0.2 - 0.3j}, support=200),
    lambda: rank_one_kernel({-60: 1.0}, {60: 0.5j}),
], ids=["shift-10", "shift-minus-10", "one-sided-gap", "rank-one-far-apart"])
def test_one_sided_band_powers_vanish_within_the_orders(monkeypatch, make_kernel):
    # the offsets of T^a leave the occupied positions before order 30: the
    # product is then an empty band, and so are all later powers
    k = make_kernel()
    calls = _record_band_products(monkeypatch)
    powers = trace_powers(k, 64)
    assert truncation_mode(k, 64) == "band"
    _assert_matches_dense_chain(monkeypatch, k, 64, powers)
    assert [powers.trace(m) for m in range(1, 31)] == [0] * 30
    assert any(lo > hi for lo, hi, _ in calls)
    assert radius_estimate(lattice_mod.truncation_trace_source(k, 64), 30) == math.inf


def test_band_powers_stop_at_half_the_order(monkeypatch):
    k = banded_kernel({0: 0.3, 1: 0.2 - 0.1j, -1: -0.15}, support=200)
    calls = _record_band_products(monkeypatch)
    # T^a of a tridiagonal truncation spans the offsets -a..a
    radius_estimate(lattice_mod.truncation_trace_source(k, 190), 30)
    assert [(lo, hi) for lo, hi, _ in calls] == [(-a, a) for a in range(2, 16)]
    # only the power being multiplied is alive when the next one is formed
    assert max(alive for *_, alive in calls) <= 1
    calls.clear()
    result = lattice_determinant(k, 0.42, order=30, cutoff=190)
    assert result.converged and result.order_used == 16
    assert [hi for _, hi, _ in calls] == list(range(2, 9))


def test_wide_band_truncation_keeps_the_sparse_path(monkeypatch):
    k = poincare_strict_kernel()  # row one spans the box: no narrow band
    powers = trace_powers(k, 100)
    assert truncation_mode(k, 100) == "sparse"
    _assert_matches_dense_chain(monkeypatch, k, 100, powers)


@pytest.mark.parametrize("cutoff", [23, 34])  # sides 2209 and 4761
def test_two_dimensional_band_above_the_dense_limit_keeps_the_sparse_path(cutoff):
    # a 9-point stencil's diagonals lie a box row apart: band storage of its
    # powers would be mostly empty, so it keeps CSR at any cutoff
    k = banded_kernel({(a, b): 0.05 for a in (-1, 0, 1) for b in (-1, 0, 1)},
                      support=200, dim=2)
    powers, side = trace_powers(k, cutoff), lattice_mod.box_side(2, cutoff)
    assert side > lattice_mod.DENSE_SIDE_LIMIT
    assert truncation_mode(k, cutoff) == "sparse"
    assert abs(powers.trace(1) - 0.05 * side) <= 1e-12 * side


def test_short_support_at_vast_cutoff_allocates_no_side_wide_band():
    # the shape of the CLI's assembly-guard request: 7-site factors, side 40001
    import tracemalloc

    from scipy import sparse  # noqa: F401  (its import is not the truncation's cost)

    g = {j: 0.5 / (1 + abs(j)) for j in range(-3, 4)}
    h = {j: (0.3 - 0.2j) / (1 + j * j) for j in range(-3, 4)}
    k = rank_one_kernel(g, h)
    tracemalloc.start()
    try:
        powers = trace_powers(k, 20000)
        traces = [powers.trace(m) for m in range(1, 31)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert truncation_mode(k, 20000) == "sparse"
    # a band array across the side would take 14 * 40001 * 16 bytes, 9 MB
    assert peak < 2 << 20
    inner = sum(g[j] * h[j] for j in g)
    for m, got in enumerate(traces, start=1):
        assert abs(got - inner ** m) <= 1e-12 * max(1.0, abs(inner ** m))


def test_band_wider_than_box_walks_only_the_box():
    calls = []

    def eval_fn(j, m):
        calls.append((j, m))
        return (0.02 + 0.01j * (j[0] - m[1])) / (1 + abs(j[0] - m[0]) + abs(j[1] - m[1]))

    # walking all (2*300+1)^2 offsets around each of the 49 points would
    # take 17.7 million steps; the walk clipped to the box takes 49^2
    k = LatticeKernel(2, eval_fn, band_radius=300, label="wide-band")
    start = time.perf_counter()
    powers = trace_powers(k, 3)
    assert time.perf_counter() - start < 1.0
    side = lattice_mod.box_side(2, 3)
    assert side == 49 and len(calls) == side * side
    a = as_array(assemble_truncation(k, 3))
    for m in (1, 2, 3, 7):
        expected = np.trace(np.linalg.matrix_power(a, m))
        assert abs(powers.trace(m) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_dense_kernels_and_small_sides_stay_dense():
    g = {j: 0.5 / (1 + abs(j)) for j in range(-70, 71)}
    h = {j: (0.3 - 0.2j) / (1 + j * j) for j in range(-70, 71)}
    full = rank_one_kernel(g, h)
    powers = trace_powers(full, 70)
    assert lattice_mod.box_side(1, 70) >= lattice_mod.SPARSE_SIDE_MIN
    assert truncation_mode(full, 70) == "dense"
    # the array built from the collected entries against the oracle's
    # entry-by-entry assembly
    a = as_array(assemble_truncation(full, 70))
    for m in (1, 2, 5):
        expected = np.trace(np.linalg.matrix_power(a, m))
        assert abs(powers.trace(m) - expected) <= 1e-12 * max(1.0, abs(expected))
    tri = banded_kernel({0: 0.3, 1: 0.2 - 0.1j, -1: -0.15}, support=200)
    for cutoff in (1, 6, 40, 63):  # side 127 is the largest below SPARSE_SIDE_MIN
        assert truncation_mode(tri, cutoff) == "dense"
        assert truncation_mode(_band_only_tridiagonal(), cutoff) == "dense"
    assert truncation_mode(tri, 64) == "band"
    # a band of half-width 8 fills 17 of 141 entries per row: above side^2/32
    wide = banded_kernel({d: 0.05 for d in range(-8, 9)}, support=200)
    assert truncation_mode(wide, 70) == "dense"


@pytest.mark.parametrize("eval_fn, mode", [
    (lambda j, m: {-1: -0.15, 0: 0.3, 1: 0.2 - 0.1j}.get(m[0] - j[0], 0.0j), "band"),
    (lambda j, m: 0.0j if max(abs(j[0]), abs(m[0])) > 3
     else complex(0.1 / (1 + abs(j[0] - 2 * m[0])), 0.02 * j[0]), "sparse"),
], ids=["tridiagonal", "short-support"])
def test_sparse_eval_only_truncation_leaves_the_dense_chain(monkeypatch, eval_fn, mode):
    k = LatticeKernel(1, eval_fn, label="eval-only")
    powers = trace_powers(k, 70)  # side 141
    assert truncation_mode(k, 70) == mode
    _assert_matches_dense_chain(monkeypatch, k, 70, powers)


def test_kernel_without_structure_takes_the_dense_chain():
    def eval_fn(j, m):
        return (0.2 - 0.1j * j[0]) / (1 + abs(j[0] - m[0]) + m[0] * m[0])

    k = LatticeKernel(1, eval_fn, label="no-structure")
    powers = trace_powers(k, 4)
    assert truncation_mode(k, 4) == "dense"
    a = as_array(assemble_truncation(k, 4))
    for m in (1, 2, 5):
        expected = np.trace(np.linalg.matrix_power(a, m))
        assert abs(powers.trace(m) - expected) <= 1e-12 * max(1.0, abs(expected))


def _side_vector_traces(k, cutoff, orders):
    """Tr(T^m) of a diagonal truncation by the complex side-vector chain:
    the box's diagonal as one complex128 vector, zeros included, raised one
    order at a time and summed."""
    rows, _, vals = lattice_mod._truncation(k, cutoff)[1]
    v = np.zeros(lattice_mod.box_side(k.dim, cutoff), dtype=np.complex128)
    v[rows] = vals
    cur, traces = v, []
    for _ in range(orders):
        traces.append(complex(cur.sum()))
        cur = cur * v
    return traces


def _wide_range_values(rng, n):
    """n real values from 1e-200 to 1 in modulus, of both signs, led by 1
    and -0.97 so that no power sum cancels."""
    mags = 10.0 ** rng.uniform(-200, 0, size=n - 2)
    signs = rng.choice([-1.0, 1.0], size=n - 2)
    return [1.0, -0.97] + (signs * mags).tolist()


@pytest.mark.parametrize("make_kernel, cutoff", [
    (lambda rng: diagonal_kernel(dict(zip(rng.permutation(np.arange(-400, 401))[:300].tolist(),
                                          _wide_range_values(rng, 300)))), 400),
    # a rule with explicit zeros on every other site
    (lambda rng: diagonal_kernel_from_rule(
        lambda j: 0.0 if j[0] % 2 else (-1) ** (j[0] // 2) * 10.0 ** (-abs(j[0]))), 250),
], ids=["table", "rule-with-zeros"])
def test_real_diagonal_chain_matches_the_complex_side_vector_chain(make_kernel, cutoff):
    k = make_kernel(np.random.default_rng(41))
    powers = trace_powers(k, cutoff)
    assert truncation_mode(k, cutoff) == "diag" and powers._parts[0][1].dtype == np.float64
    expected = _side_vector_traces(k, cutoff, 2000)
    for m, want in enumerate(expected, start=1):
        got = powers.trace(m)
        assert type(got) is complex
        assert abs(got - want) <= 1e-14 * abs(want)


def test_underflowed_diagonal_powers_are_dropped():
    # 1e-160 squared is subnormal (1e-320) and kept; cubed it is 0 and dropped
    values = {0: 1.0, 1: -0.5, 2: 1e-160, 3: 1e-200, 4: 0.0}
    powers = trace_powers(diagonal_kernel(values), 5)
    part = powers._parts[0]  # [weights, base, last power formed]
    assert part[1].tolist() == [1.0, -0.5, 1e-160, 1e-200]  # the explicit zero is gone
    powers.trace(2)
    assert part[1].tolist() == [1.0, -0.5, 1e-160]
    assert part[2].tolist() == [1.0, 0.25, 1e-160 * 1e-160]
    assert 0 < part[2][-1] < np.finfo(np.float64).tiny
    powers.trace(3)
    assert part[1].tolist() == [1.0, -0.5]
    assert powers.trace(1100) == 1 + 0.0j  # (-0.5)^1100 underflows too
    assert part[1].tolist() == part[2].tolist() == [1.0]
    expected = _side_vector_traces(diagonal_kernel(values), 5, 1100)
    assert [powers.trace(m) for m in range(1, 1101)] == expected


def test_complex_diagonal_value_keeps_complex128():
    values = {j: 0.9 / (1 + j * j) for j in range(-30, 31)}
    values[7] = 0.02 + 1e-3j
    k = diagonal_kernel(values)
    powers = trace_powers(k, 30)
    assert truncation_mode(k, 30) == "diag" and powers._parts[0][1].dtype == np.complex128
    for m, want in enumerate(_side_vector_traces(k, 30, 300), start=1):
        assert abs(powers.trace(m) - want) <= 1e-14 * abs(want)


def test_zero_fixture_has_zero_traces():
    from pathlib import Path

    from specdet.specfile import build_operator, parse_spec

    k = build_operator(parse_spec(Path(__file__).resolve().parent.parent / "fixtures" / "zero.json"))
    powers = trace_powers(k, 8)
    assert truncation_mode(k, 8) == "diag" and len(powers._parts[0][1]) == 0
    assert all(bits(powers.trace(m)) == bits(0j) for m in range(1, 31))


def test_a_wide_box_with_no_entry_is_stored_sparse():
    # the one entry of the table lies outside the box of side 129: an empty
    # entry list has no band span, and the empty truncation is the zero operator
    from specdet.specfile import build_operator, parse_spec_text

    k = build_operator(parse_spec_text('{"kind": "lattice_kernel", "family": "table", '
                                       '"entries": [[100, 100, 0.5, 0.0]]}'))
    assert lattice_determinant(k, 0.5, cutoff=64).value == 1.0
    assert lattice_trace(k, 64) == 0.0
    assert radius_estimate(lattice_mod.truncation_trace_source(k, 64), 30) == math.inf
    assert k._truncated[1][0] == "sparse"


def test_a_numpy_integer_is_an_index():
    assert lattice_mod._as_index(np.int64(-3), 1) == (-3,)
    assert diagonal_kernel({np.int64(2): 0.5}).value((2,), (2,)) == 0.5


@pytest.mark.parametrize("make_kernel, dtype", [
    (lambda: banded_kernel({0: 0.3, 1: 0.2, -1: -0.15}, support=200), np.float64),
    (lambda: _band_only_tridiagonal(0.2), np.float64),
    (lambda: banded_kernel({-2: 0.1, 0: -0.25, 3: 0.05}, support=150), np.float64),
    (lambda: banded_kernel({0: 0.3, 1: 0.2, -1: -0.15j}, support=200), np.complex128),
], ids=["tridiagonal", "band-only", "asymmetric", "complex"])
def test_band_storage_follows_the_entries(monkeypatch, make_kernel, dtype):
    k = make_kernel()
    powers = trace_powers(k, 190)
    assert truncation_mode(k, 190) == "band" and powers._parts[0][1].rows.dtype == dtype
    _assert_matches_dense_chain(monkeypatch, k, 190, powers)
    assert all(p.rows.dtype == dtype for p in powers._powers.values())
    assert all(type(powers.trace(m)) is complex for m in (1, 2, 30))


def _assert_follows_the_complex_chain(powers, stored):
    """Over 40 orders, the traces of ``powers`` against the complex128 chain
    of ``stored`` (a dense array or a CSR matrix of the truncation) times
    itself with ``@``, each power's diagonal summed: bit for bit from a
    complex base, within 1e-14 relative from a real one."""
    base = stored.astype(np.complex128)
    cur = base
    for m in range(1, 41):
        if m > 1:
            cur = cur @ base
        want, got = complex(cur.diagonal().sum()), powers.trace(m)
        assert type(got) is complex
        if powers._parts[0][1].dtype == np.complex128:
            assert bits(got) == bits(want)
        else:
            assert abs(got - want) <= 1e-14 * abs(want)


def _positive_rank_one(rng, support, imag=0.0):
    """A rank-one kernel of positive factors, so no trace power cancels;
    ``imag`` adds an imaginary part to one value of ``h``."""
    g = dict(zip(range(-support, support + 1), rng.uniform(0.1, 1.0, 2 * support + 1)))
    h = {j: 0.5 * x / (2 * support + 1) for j, x in
         zip(range(-support, support + 1), rng.uniform(0.1, 1.0, 2 * support + 1))}
    h[0] += 1j * imag
    return rank_one_kernel(g, h)


def _positive_table_2d(rng, imag=0.0):
    """A 2-D table kernel holding every pair of the 25 sites |j|_inf <= 2,
    positive, so no trace power cancels; ``imag`` adds an imaginary part to
    one entry.  Its 625 entries fill at most 1/32 of any box from side 169."""
    sites = list(itertools.product(range(-2, 3), repeat=2))
    entries = {(j, m): v for (j, m), v in zip(itertools.product(sites, sites),
                                              rng.uniform(0.0, 0.05, len(sites) ** 2))}
    entries[((0, 0), (1, 1))] += 1j * imag
    return table_kernel(entries, dim=2)


@pytest.mark.parametrize("imag, dtype", [(0.0, np.float64), (0.01, np.complex128)],
                         ids=["real", "complex"])
@pytest.mark.parametrize("cutoff", [8, 12, 50])  # sides 17, 25, 101
def test_dense_base_is_float64_exactly_when_the_entries_are_real(cutoff, imag, dtype):
    k = _positive_rank_one(np.random.default_rng(cutoff), 50, imag)
    powers = trace_powers(k, cutoff)
    held, (mode, entries, stored) = k._truncated
    assert (held, mode, entries) == (cutoff, "dense", None)
    assert truncation_mode(k, cutoff) == "dense" and powers._parts[0][1].dtype == dtype
    assert stored.dtype == dtype and not stored.flags.writeable
    # the base is the stored matrix itself: the truncation is kept in one form
    assert np.shares_memory(powers._parts[0][1], stored)
    _assert_follows_the_complex_chain(powers, stored)


@pytest.mark.parametrize("imag, dtype", [(0.0, np.float64), (0.01, np.complex128)],
                         ids=["real", "complex"])
@pytest.mark.parametrize("cutoff", [6, 9])  # sides 169 and 361
def test_sparse_values_are_float64_exactly_when_the_entries_are_real(cutoff, imag, dtype):
    from scipy import sparse

    k = _positive_table_2d(np.random.default_rng(cutoff), imag)
    powers, side = trace_powers(k, cutoff), lattice_mod.box_side(2, cutoff)
    assert side >= lattice_mod.SPARSE_SIDE_MIN
    assert truncation_mode(k, cutoff) == "sparse" and powers._parts[0][1].dtype == dtype
    held, (_, (rows, cols, vals), matrix) = k._truncated
    assert held == cutoff and matrix is None
    assert vals.dtype == dtype and not vals.flags.writeable
    _assert_follows_the_complex_chain(
        powers, sparse.csr_matrix((vals, (rows, cols)), shape=(side, side)))


def _band_product_by_offsets(t, p):
    """(lo, hi, diagonals) of T P from the definition: a zero array over
    the offsets lo..hi clipped to |o| < n, then for each diagonal e of T
    holding a nonzero entry, ascending, and each diagonal s of P, one
    multiply-add of T[i, i + e] P[i + e, i + e + s] into offset e + s,
    over the rows i where both entries lie inside."""
    n = p.rows.shape[1]
    lo, hi = max(p.lo + t.lo, 1 - n), min(p.hi + t.hi, n - 1)
    out = np.zeros((max(hi - lo + 1, 0), n), dtype=p.rows.dtype)
    for e in range(t.lo, t.hi + 1):
        if not t.rows[e - t.lo].any():
            continue
        i0, i1 = max(0, -e), min(n, n - e)
        for s in range(p.lo, p.hi + 1):
            if lo <= e + s <= hi:
                out[e + s - lo, i0:i1] += (t.rows[e - t.lo, i0:i1]
                                           * p.rows[s - p.lo, i0 + e:i1 + e])
    return lo, hi, out


@pytest.mark.parametrize("offsets, support, cutoff", [
    ({-1: -0.15, 0: 0.3, 1: 0.2}, 200, 150),
    ({-4: 0.2, 0: 0.1, 4: 0.3, 8: -0.1}, 300, 300),  # one offset in four
    ({-2: 0.1, 0: 0.3, 1: -0.2}, 100, 64),
    ({10: 0.5}, 200, 64),  # one-sided: empty from T^13
    ({16: 0.4, 19: 0.2}, 200, 64),  # one-sided and gapped: empty from T^8
], ids=["tridiagonal", "step-4", "gapped", "shift-10", "one-sided-gap"])
@pytest.mark.parametrize("phase", [1.0, 0.8 + 0.6j], ids=["real", "complex"])
def test_band_products_equal_the_per_offset_multiply_add(offsets, support, cutoff, phase):
    # real products are the reference bit for bit: one contraction adds the
    # same terms in the same order, plus zeros; complex ones move by rounding
    k = banded_kernel({d: v * phase for d, v in offsets.items()}, support=support)
    powers = trace_powers(k, cutoff)
    assert truncation_mode(k, cutoff) == "band"
    t = p = powers._parts[0][1]
    for _ in range(2, 31):
        lo, hi, expected = _band_product_by_offsets(t, p)
        p = lattice_mod._band_times(t, powers._offsets, p)
        if lo <= hi:
            assert (p.lo, p.hi) == (lo, hi)
        else:
            assert p.lo > p.hi and not p.rows.size
        if phase == 1.0:
            assert p.rows.dtype == np.float64
            assert np.array_equal(p.rows.view(np.uint64), expected.view(np.uint64))
        else:
            assert np.abs(p.rows - expected).max(initial=0.0) <= (
                1e-15 * np.abs(expected).max(initial=0.0))
    assert (p.lo > p.hi) == (min(offsets) > 0)


def test_diagonal_fast_path_agrees_with_dense():
    entries = {j: rand_complex(np.random.default_rng(26), 0.5) for j in range(-3, 4)}
    diag = diagonal_kernel(entries)
    # same sites through the generic table family, which lacks a band hint
    table = table_kernel({(j, j): v for j, v in entries.items()})
    for m in (1, 2, 4):
        a = truncation_trace_source(diag, 3).trace_power(m)
        b = truncation_trace_source(table, 3).trace_power(m)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_main_diagonal_alone_takes_the_band_path():
    # a table of diagonal sites declares no band radius, so from side 128 its
    # one occupied diagonal is a band of width 1, whose skewed view needs a
    # padded row to hold every position
    entries = {j: 0.9 / (1 + j * j) * (1 if j % 3 else -1) for j in range(-64, 65)}
    table = table_kernel({(j, j): v for j, v in entries.items()})
    powers = trace_powers(table, 64)
    band = powers._parts[0][1]
    assert truncation_mode(table, 64) == "band" and (band.lo, band.hi) == (0, 0)
    diag = trace_powers(diagonal_kernel(entries), 64)
    for m in range(1, 41):
        want = diag.trace(m)
        assert abs(powers.trace(m) - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("make_kernel", [
    lambda r: LatticeKernel(1, lambda j, m: 0.5 / (1 + (j[0] - m[0]) ** 2), label="eval-only"),
    lambda r: rank_one_kernel({j: 1.0 / (1 + j * j) for j in range(-r, r + 1)},
                              {j: 0.5 - 0.1j * j for j in range(-r, r + 1)}),
], ids=["eval-only", "rank-one"])
def test_a_dense_truncation_holds_its_matrix_alone(make_kernel):
    # 16 bytes per entry, not the 48 of sorted (row, col, value) arrays
    import tracemalloc

    cutoff, side = 300, 601
    k = make_kernel(cutoff)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        truncation = lattice_mod._truncation(k, cutoff)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= side * side * 16 + 256 * side
    mode, entries, matrix = truncation
    assert mode == "dense" and entries is None and matrix.shape == (side, side)
    assert not matrix.flags.writeable


def test_determinant_of_zero_kernel():
    result = lattice_determinant(diagonal_kernel({}), 0.7, order=10, cutoff=3)
    assert result.value == 1
    assert all(t == 0 for t in result.terms)
    assert result.converged


def test_determinant_rank_one():
    c = 0.7
    k = rank_one_kernel({0: c}, {0: 1.0})
    result = lattice_determinant(k, 0.5, order=40, cutoff=4)
    assert abs(result.value - (1 + 0.5 * c)) <= 1e-10
    assert result.cutoff_used == 4


def test_determinant_small_diagonal_product():
    k = diagonal_kernel({0: 0.5, 1: 0.25})
    result = lattice_determinant(k, 1.0, order=60, cutoff=2, tol=1e-14)
    assert abs(result.value - 1.5 * 1.25) <= 1e-10


def test_determinant_inverse_square_diagonal_matches_partial_product():
    k = diagonal_kernel_from_rule(lambda j: 1.0 / j[0] ** 2 if j[0] >= 1 else 0.0)
    cutoff = 200
    result = lattice_determinant(k, 1.0, order=4000, cutoff=cutoff, tol=1e-14)
    product = 1.0
    for j in range(1, cutoff + 1):
        product *= 1 + 1.0 / j ** 2
    # harmonic-type alternating tail: error ~ value/(2*order)
    assert abs(result.value - product) <= 1e-3
    assert result.diagnostics.get("warnings")  # |lambda|*norm >= 1


def test_determinant_puts_the_norm_warning_ahead_of_the_series_warnings():
    result = lattice_determinant(diagonal_kernel({0: 0.9}), 1e200, cutoff=2)
    assert result.reason == "overflow"
    assert result.diagnostics["nuclear_norm_estimate"] == 0.9
    norm_warning, overflow_warning = result.diagnostics["warnings"]
    assert norm_warning == ("|lambda|*norm = 9e+199 >= 1; the series may converge "
                            "slowly or not at all")
    assert overflow_warning.startswith("the series term of order 2")


def test_determinant_matches_direct_oracle_on_random_kernels():
    rng = np.random.default_rng(27)
    for _ in range(30):
        support = int(rng.integers(1, 4))
        k = random_table_kernel(rng, support=support)
        cutoff = int(rng.integers(support, support + 3))
        norm = nuclear_norm_estimate(k, 1.0, cutoff)
        lam = 0.5 / max(1.0, norm) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        result = lattice_determinant(k, lam, order=40, cutoff=cutoff, tol=1e-13)
        oracle = direct_determinant(assemble_truncation(k, cutoff), lam)
        assert result.converged
        assert abs(result.value - oracle) <= 1e-6 * (1 + abs(result.value))


def shift_by_identity(m):
    return CMatrix(m.rows, m.cols, tuple(
        m.at(i, j) + (1.0 if i == j else 0.0)
        for i in range(m.rows) for j in range(m.cols)))


def test_finite_rank_multiplicativity_through_oracle():
    rng = np.random.default_rng(28)
    for _ in range(10):
        ia = shift_by_identity(assemble_truncation(random_table_kernel(rng, support=2), 2))
        ib = shift_by_identity(assemble_truncation(random_table_kernel(rng, support=2), 2))
        lhs = lu_determinant(mat_mul(ia, ib))
        rhs = lu_determinant(ia) * lu_determinant(ib)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_determinant_warns_outside_recommended_disc():
    k = diagonal_kernel({0: 1.0})
    result = lattice_determinant(k, 3.0, order=10, cutoff=2)
    assert any("lambda" in w for w in result.diagnostics.get("warnings", []))
    assert not result.converged


def test_determinant_parameter_errors():
    k = diagonal_kernel({0: 1.0})
    with pytest.raises(ParameterError):
        lattice_determinant(k, 0.1, order=0, cutoff=2)
    with pytest.raises(ParameterError):
        lattice_determinant(k, 0.1, order=5, cutoff=0)


def test_non_finite_kernel_names_offending_index():
    def eval_fn(j, m):
        if j == (1,) and m == (0,):
            return float("nan")
        return 0.0

    k = LatticeKernel(1, eval_fn, label="broken")
    with pytest.raises(EvaluationError, match=r"\(1,\)"):
        truncation_trace_source(k, 2).trace_power(2)


@pytest.mark.parametrize("build", [
    lambda: diagonal_kernel({0: 1.0, 2: 0.5}),
    lambda: diagonal_kernel_from_rule(lambda j: 2.0 ** -abs(j[0])),
    lambda: rank_one_kernel({0: 1.0, 1: 0.5}, {-1: 0.25, 0: 1.0}),
    lambda: banded_kernel({-1: 0.25, 1: 0.5}, support=3),
    lambda: table_kernel({(0, 1): 0.5, (2, -2): 0.25}),
    lambda: poincare_strict_kernel(),
    lambda: toroidal_matrix(power_decay_symbol(-2.0), 4),
    lambda: toroidal_matrix(table_symbol({(1, 0): 0.5, (0, 2): 0.25}), 4),
    lambda: toroidal_matrix(modulated_symbol({1: 0.25, -1: 0.25}, -2.0), 4),
], ids=["diagonal", "diagonal-rule", "rank-one", "banded", "table", "poincare-strict",
        "toroidal-constant", "toroidal-table", "toroidal-sampled"])
def test_building_a_kernel_evaluates_nothing(monkeypatch, build):
    calls = []
    post_init = LatticeKernel.__post_init__

    def counting(k):
        evaluate = k.eval
        k.eval = lambda j, m: calls.append((j, m)) or evaluate(j, m)
        post_init(k)

    monkeypatch.setattr(LatticeKernel, "__post_init__", counting)
    k = build()
    assert calls == []
    k.eval((0,), (0,))
    assert calls == [((0,), (0,))]


def test_hookless_kernel_refuses_huge_norm_enumeration():
    k = LatticeKernel(1, lambda j, m: 0.0)
    with pytest.raises(FeasibilityError) as info:
        nuclear_norm_estimate(k, 1.0, 5000)
    assert info.value.count == (2 * 5000 + 1) ** 2


def _unwalkable(j, m):
    raise AssertionError(f"kernel evaluated at (j={j}, m={m})")


_READS = {
    "norm": lambda k, r: nuclear_norm_estimate(k, 1.0, r),
    "schur": lambda k, r: schur_bound(k, 2.0, r),
    "trace": lattice_trace,
    "trace-powers": lattice_mod.truncation_trace_source,
    "determinant": lambda k, r: lattice_determinant(k, 0.1, cutoff=r),
}


@pytest.mark.parametrize("read", _READS.values(), ids=_READS.keys())
def test_walk_guard_refuses_before_it_walks(read):
    # (2R+1) * 3 - 2 pairs within band 1 of the box at R = 10^6
    k = LatticeKernel(1, _unwalkable, band_radius=1, label="band-only")
    with pytest.raises(FeasibilityError) as info:
        read(k, 10**6)
    assert info.value.count == 6_000_001
    assert k._truncated is None


class _Walked(Exception):
    pass


def _walked(j, m):
    raise _Walked


@pytest.mark.parametrize("read, last", [
    (_READS["norm"], 1023), (_READS["schur"], 1023), (_READS["trace-powers"], 1023),
    (_READS["determinant"], 1023), (_READS["trace"], 2**21 - 1),
], ids=["norm", "schur", "trace-powers", "determinant", "trace"])
def test_eval_only_kernel_is_walked_up_to_the_guard(read, last):
    # the box of side 2047 (its trace: side 2^22 - 1) is walked, and the
    # next cutoff is refused before its first evaluation
    k = LatticeKernel(1, _walked, label="eval-only")
    with pytest.raises(_Walked):
        read(k, last)
    k.eval = _unwalkable
    with pytest.raises(FeasibilityError) as info:
        read(k, last + 1)
    side = 2 * last + 3
    assert info.value.count == (side if read is lattice_trace else side * side)
    assert info.value.count > lattice_mod.BRUTE_PAIR_LIMIT


@pytest.mark.parametrize("dim, cutoff, band", [
    (1, 3, 0), (1, 3, 2), (1, 3, 6), (1, 3, 50),
    (2, 2, 1), (2, 2, 3), (2, 2, 4), (3, 1, 1), (3, 2, 2),
])
def test_walk_visits_each_pair_within_the_band_once_in_order(dim, cutoff, band):
    def value(j, m):  # zero where sum(j) = -1 and sum(m) = 0
        return complex(1 + sum(j), sum(m))

    calls = []
    k = LatticeKernel(dim, lambda j, m: calls.append((j, m)) or value(j, m), label="walked")
    walked = lattice_mod._walk(k, cutoff, band)
    box = _box(dim, cutoff)
    expected = [(j, m) for j in box for m in box
                if max(abs(x - y) for x, y in zip(j, m)) <= band]
    assert calls == expected
    if band >= 2 * cutoff:  # every pair of the box: its matrix, zeros included
        assert walked.ravel().tolist() == [value(j, m) for j, m in expected]
        walked = matrix_entries(walked)
    rows, cols, vals = walked
    nonzero = [(j, m) for j, m in expected if value(j, m) != 0]
    assert [(box[r], box[c]) for r, c in zip(rows.tolist(), cols.tolist())] == nonzero
    assert vals.tolist() == [value(j, m) for j, m in nonzero]


def _formed_pairs(r, shifts, cutoff):
    """The pairs of ``_box_pairs`` from each j + s formed, then kept in the box."""
    box = lattice_mod._box_points(shifts.shape[1], r)
    rows, cols, shift = [], [], []
    for pos, j in zip(lattice_mod._positions(box, cutoff).tolist(), box):
        m = j + shifts
        keep = np.flatnonzero((np.abs(m) <= r).all(axis=1))
        rows += [pos] * len(keep)
        cols += lattice_mod._positions(m[keep], cutoff).tolist()
        shift += keep.tolist()
    return rows, cols, shift


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_box_pairs_are_the_formed_pairs(dim):
    # masked axis by axis, the pairs and their positions are those of every
    # j + s formed and then kept: every band of cutoffs 1-4, positions in
    # the box itself and in a wider one
    for cutoff in range(1, 5):
        for band in range(2 * cutoff + 1):
            shifts = lattice_mod._box_points(dim, band)
            for wider in (cutoff, cutoff + 2):
                got = lattice_mod._box_pairs(cutoff, shifts, wider)
                assert all(a.dtype == np.int64 for a in got)
                assert [a.tolist() for a in got] == list(_formed_pairs(cutoff, shifts, wider))


def test_determinant_walks_an_eval_only_kernel_once():
    calls = []

    def eval_fn(j, m):
        calls.append((j, m))
        return (0.2 - 0.1j * j[0]) / (1 + abs(j[0] - m[0]) + m[0] * m[0]) / 41

    k = LatticeKernel(1, eval_fn, label="eval-only")
    result = lattice_determinant(k, 0.3, order=30, cutoff=20)
    assert len(calls) == len(set(calls)) == 41 ** 2
    assert result.converged
    oracle = direct_determinant(assemble_truncation(k, 20), 0.3)
    assert abs(result.value - oracle) <= 1e-12 * abs(oracle)


def _box(dim, r):
    return list(itertools.product(range(-r, r + 1), repeat=dim))


def _family_kernel(family, dim, rng):
    """A kernel of one built-in family with declared support 2 where the
    family has one, random complex values and an explicit zero site."""
    box = _box(dim, 2)

    def subset(points, keep=0.6):
        return [pt for pt in points if rng.uniform() < keep]

    if family == "diagonal":
        entries = {j: rand_complex(rng) for j in subset(box)}
        entries[box[-1]] = 0.0
        return diagonal_kernel(entries, dim=dim)
    if family == "diagonal_rule":
        return diagonal_kernel_from_rule(
            lambda j: complex(1.0 / (1 + sum(x * x for x in j)), 0.1 * j[0] - 0.05), dim=dim)
    if family == "rank_one":
        g = {j: rand_complex(rng) for j in subset(box[1:])}
        h = {m: rand_complex(rng) for m in subset(box)}
        h[box[1]] = 0.0
        return rank_one_kernel(g, h, dim=dim)
    if family == "banded":
        offsets = {d: rand_complex(rng, 0.4) for d in subset(_box(dim, 1))}
        offsets[(1,) * dim] = 0.0
        return banded_kernel(offsets, support=2, dim=dim)
    if family == "table":
        entries = {(j, m): rand_complex(rng) for j, m in subset(itertools.product(box, box), 0.3)}
        entries[(box[0], box[-1])] = 0.0
        return table_kernel(entries, dim=dim)
    if family == "poincare":
        return poincare_strict_kernel()
    if family == "eval_only":  # entries come from the walk over the whole box
        def eval_fn(j, m):
            if (sum(j) + 2 * sum(m)) % 3 == 0:
                return 0.0j
            return complex(0.2 / (1 + sum(abs(x - y) for x, y in zip(j, m))), 0.03 * (j[0] - m[-1]))

        return LatticeKernel(dim, eval_fn, label="eval-only")

    def eval_fn(j, m):  # band-only: entries come from the band walk
        gap = max(abs(x - y) for x, y in zip(j, m))
        return 0.0j if gap > 1 else complex(0.3 / (1 + gap + j[-1] ** 2), 0.01 * (j[0] - m[-1]))

    return LatticeKernel(dim, eval_fn, band_radius=1, label="band-only")


@pytest.mark.parametrize("cutoff", [1, 2, 3])  # below, at and above support 2
@pytest.mark.parametrize("family, dim", [
    (family, dim)
    for family in ("diagonal", "diagonal_rule", "rank_one", "banded", "table", "band_only",
                   "eval_only")
    for dim in (1, 2)] + [("poincare", 1)])
def test_truncation_entries_are_the_entry_walk(family, dim, cutoff):
    k = _family_kernel(family, dim, np.random.default_rng(60 + dim))
    assert_truncation_is_entry_walk(k, cutoff)


def _first_non_finite_sites(k, cutoff):
    with pytest.raises(EvaluationError) as walk:
        assemble_truncation(k, cutoff)
    with pytest.raises(EvaluationError) as entries:
        nuclear_norm_estimate(k, 1.0, cutoff)
    with pytest.raises(EvaluationError) as powers:
        truncation_trace_source(k, cutoff)
    named = non_finite_site(str(entries.value))
    assert non_finite_site(str(powers.value)) == named
    return non_finite_site(str(walk.value)), named


@pytest.mark.parametrize("dim", [1, 2])
def test_nan_table_site_is_named_like_the_entry_walk(dim):
    rng = np.random.default_rng(70)
    box = _box(dim, 2)
    entries = {(j, m): rand_complex(rng) for j, m in itertools.product(box, box)
               if rng.uniform() < 0.3}
    entries[(box[3], box[2])] = float("nan")
    entries[(box[4], box[0])] = complex(0.0, float("nan"))
    walk, named = _first_non_finite_sites(table_kernel(entries, dim=dim), 2)
    assert walk == named == (str(box[3]), str(box[2]))


@pytest.mark.parametrize("g, h, site", [
    # inf * 0 is nan: the bad row starts at the first box point, where h is 0
    ({-1: 0.5, 1: math.inf}, {0: 1.0, 2: 0.3}, ("(1,)", "(-2,)")),
    ({0: 1.0}, {1: complex(0.0, math.inf), 2: 0.5}, ("(-2,)", "(1,)")),
    ({-2: 0.5, 1: 2.0}, {-2: math.inf}, ("(-2,)", "(-2,)")),
])
def test_inf_rank_one_factor_is_named_like_the_entry_walk(g, h, site):
    walk, named = _first_non_finite_sites(rank_one_kernel(g, h), 2)
    assert walk == named == site


def test_entries_are_built_once_per_cutoff():
    k = banded_kernel({0: 0.3, 1: 0.2 - 0.1j, -1: -0.15}, support=200)
    calls = []
    support_arrays = k.support_arrays
    k.support_arrays = lambda r: calls.append(r) or support_arrays(r)
    for cutoff in (150, 190, 150):
        nuclear_norm_estimate(k, 1.0, cutoff)
        lattice_trace(k, cutoff)
        truncation_trace_source(k, cutoff).trace_power(3)
    # one truncation is remembered: each cutoff in a row is read once
    assert calls == [150, 190, 150]
    assert k._truncated[0] == 150
    rows, _, vals = lattice_mod._truncation(k, 150)[1]
    assert not rows.flags.writeable and not vals.flags.writeable


@pytest.mark.parametrize("k, small", [
    (banded_kernel({1: 0.5}, support=4), 4),
    (diagonal_kernel({(0, 1): 0.5, (-2, 3): 0.25j}, dim=2), 3),
    (table_kernel({((1, 0), (0, -1)): 0.5, ((0, -1), (1, 0)): -0.25 + 0.5j}, dim=2), 1),
], ids=["banded", "diagonal-2d", "table-2d"])
def test_vast_cutoff_costs_the_entries_not_the_box(k, small):
    # boxes of side 2e7 and 1.6e7: no array may follow the side
    import tracemalloc

    cutoff = 10**7 if k.dim == 1 else 2000
    tracemalloc.start()
    try:
        norm = nuclear_norm_estimate(k, 1.0, cutoff)
        schur = schur_bound(k, 2.0, cutoff)
        trace = lattice_trace(k, cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert bits(norm) == bits(nuclear_norm_estimate(k, 1.0, small))
    assert bits(schur) == bits(schur_bound(k, 2.0, small))
    assert bits(trace) == bits(lattice_trace(k, small))


def test_entries_are_sorted_on_a_box_whose_pair_count_overflows():
    cutoff = 10**5
    side = (2 * cutoff + 1) ** 2  # side^2 is above 2^63
    rows = np.array([side - 1, 0, side - 1, 5], dtype=np.int64)
    cols = np.array([3, side - 1, 0, 5], dtype=np.int64)
    vals = np.array([1, 2, 3, 4], dtype=np.complex128)
    k = LatticeKernel(2, lambda j, m: 0j, support_arrays=lambda r: (rows, cols, vals))
    got_rows, got_cols, got_vals = lattice_mod._truncation(k, cutoff)[1]
    assert got_rows.tolist() == [0, 5, side - 1, side - 1]
    assert got_cols.tolist() == [side - 1, 5, 0, 3]
    assert got_vals.tolist() == [2, 4, 3, 1]


def sorted_site_arrays(table, width):
    """Site arrays as a sorted() walk over the index tuples builds them; the
    reference for the np.lexsort build of lattice._site_arrays."""
    sites = sorted(table)
    points = np.array(sites, dtype=np.int64).reshape(-1, width)
    values = np.array([table[site] for site in sites], dtype=np.complex128)
    return points, np.abs(points).max(axis=1, initial=0), values


def _scrambled(rng, sites, keep=0.6):
    """A random share of ``sites`` in a random order, each with a random
    value or an explicit zero."""
    kept = [site for site in sites if rng.uniform() < keep]
    rng.shuffle(kept)
    return {site: 0.0 if n % 3 == 0 else rand_complex(rng) for n, site in enumerate(kept)}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", ["diagonal", "rank_one", "banded", "table"])
def test_support_arrays_are_the_sorted_build(monkeypatch, family, dim):
    rng = np.random.default_rng(90 + dim)
    # negative sites in a random order; 1-D sites as plain ints and as tuples
    sites = [s[0] if dim == 1 and n % 2 else s for n, s in enumerate(_box(dim, 3))]
    if family == "diagonal":
        entries = _scrambled(rng, sites)
        make = lambda: diagonal_kernel(entries, dim=dim)
        # the sorted build read the diagonal as the finite table {(j, j): value}
        as_table = lambda: table_kernel(
            {(lattice_mod._as_index(j, dim),) * 2: v for j, v in entries.items()}, dim=dim)
    else:
        if family == "rank_one":
            g, h = _scrambled(rng, sites), _scrambled(rng, sites)
            make = lambda: rank_one_kernel(g, h, dim=dim)
        elif family == "banded":
            offsets = _scrambled(rng, [s for s in sites if np.abs(s).max() <= 2])
            make = lambda: banded_kernel(offsets, support=3, dim=dim)
        else:
            entries = _scrambled(rng, list(itertools.product(sites, sites)), keep=0.2)
            make = lambda: table_kernel(entries, dim=dim)
        as_table = make
    k = make()
    with monkeypatch.context() as m:
        m.setattr(lattice_mod, "_site_arrays", sorted_site_arrays)
        ref, table_ref = make(), as_table()
    assert k.band_radius == ref.band_radius
    for cutoff in (1, 2, 3, 5):
        got, want = k.support_arrays(cutoff), table_ref.support_arrays(cutoff)
        assert [a.dtype for a in got] == [np.int64, np.int64, np.complex128]
        assert [a.dtype for a in want] == [a.dtype for a in got]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


#: kernel -> (fresh copy, cutoffs it is read at), crossing the dense, band,
#: sparse and diag forms and real and complex values
_ORDER_KERNELS = {
    "banded-real": (lambda: banded_kernel({0: 0.3, 1: 0.2, -1: -0.15}, support=80),
                    [1, 5, 63, 64, 70]),
    "banded-complex": (lambda: banded_kernel({0: 0.3, 1: 0.2 - 0.1j, -1: -0.15}, support=80),
                       [1, 5, 63, 64, 70]),
    "table-2d": (lambda: _positive_table_2d(np.random.default_rng(3), imag=0.01),
                 [1, 2, 6, 7]),
    "rank-one": (lambda: _positive_rank_one(np.random.default_rng(4), 50), [1, 8, 12, 50]),
    "diagonal": (lambda: diagonal_kernel({j: 0.5 / (1 + j * j) for j in range(-100, 101)}),
                 [1, 8, 64, 100]),
    "eval-only-band": (_band_only_tridiagonal, [1, 8, 64]),
}

_ORDER_READS = {
    "norm": lambda k, r: nuclear_norm_estimate(k, 1.0, r),
    "schur": lambda k, r: schur_bound(k, 2.0, r),
    "trace": lattice_trace,
    "powers": lambda k, r: [lattice_mod.truncation_trace_source(k, r).trace_power(m)
                            for m in range(1, 31)],
}


@st.composite
def _read_sequences(draw):
    """A kernel and reads of it at each of its cutoffs in any order, then
    at some of them again."""
    name = draw(st.sampled_from(sorted(_ORDER_KERNELS)))
    cutoffs = _ORDER_KERNELS[name][1]
    order = draw(st.permutations(cutoffs)) + draw(st.lists(st.sampled_from(cutoffs),
                                                            max_size=3))
    return name, [(r, draw(st.sampled_from(sorted(_ORDER_READS)))) for r in order]


def _bits_of(value):
    return [bits(v) for v in value] if isinstance(value, list) else bits(value)


def test_the_order_of_reads_does_not_matter():
    # each read of one kernel equals the same read of a fresh kernel bit for
    # bit, and only the last cutoff read is remembered
    fresh = {}

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(_read_sequences())
    def agree(case):
        name, reads = case
        make = _ORDER_KERNELS[name][0]
        k = make()
        for cutoff, read in reads:
            key = (name, cutoff, read)
            if key not in fresh:
                fresh[key] = _bits_of(_ORDER_READS[read](make(), cutoff))
            assert _bits_of(_ORDER_READS[read](k, cutoff)) == fresh[key]
            assert k._truncated[0] == cutoff
        assert k._truncated[0] == reads[-1][0]

    agree()
    # every kernel was read at every cutoff, and each read was taken
    assert len({key[:2] for key in fresh}) == sum(len(c) for _, c in _ORDER_KERNELS.values())
    assert {key[2] for key in fresh} == set(_ORDER_READS)
